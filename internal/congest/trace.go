package congest

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements the simulator's observability layer (DESIGN.md §3.9):
// an Observer that attributes per-round costs to a tree of named phases, an
// optional ring-buffered JSONL trace sink, and the Report serialization the
// cmd tools emit. The layer is strictly passive — it never influences
// message contents, PRNG streams, or termination, so attaching an Observer
// cannot change any algorithm's outputs or Metrics.

// histBuckets is the number of message-size histogram buckets: exact word
// counts 0..MaxWords (the CONGEST regime), then the coarse LOCAL-regime
// ranges 9-16, 17-64, 65-256, 257-1024, and >1024.
const histBuckets = 14

// histBucket maps a message word count to its histogram bucket.
func histBucket(words int) int {
	switch {
	case words <= 8:
		return words
	case words <= 16:
		return 9
	case words <= 64:
		return 10
	case words <= 256:
		return 11
	case words <= 1024:
		return 12
	default:
		return 13
	}
}

// histLabel names a histogram bucket for reports.
func histLabel(b int) string {
	if b <= 8 {
		return strconv.Itoa(b)
	}
	switch b {
	case 9:
		return "9-16"
	case 10:
		return "17-64"
	case 11:
		return "65-256"
	case 12:
		return "257-1024"
	default:
		return ">1024"
	}
}

// PhaseTotals aggregates the costs attributed to one phase while it was the
// innermost open phase ("self" costs; a phase's report additionally rolls up
// its children).
type PhaseTotals struct {
	// Rounds is the number of synchronized rounds executed.
	Rounds int
	// Messages and Words are the sends accounted during those rounds.
	Messages int64
	Words    int64
	// Bits is Words converted at the executing simulator's word size
	// (BitsPerWord of its network), summed exactly per round.
	Bits int64
	// MaxWordsPerMsg is the largest single message sent during the phase.
	MaxWordsPerMsg int
	// Hist counts sent messages by size bucket (see histBucket).
	Hist [histBuckets]int64
}

func (t *PhaseTotals) add(o *PhaseTotals) {
	t.Rounds += o.Rounds
	t.Messages += o.Messages
	t.Words += o.Words
	t.Bits += o.Bits
	if o.MaxWordsPerMsg > t.MaxWordsPerMsg {
		t.MaxWordsPerMsg = o.MaxWordsPerMsg
	}
	for b := range o.Hist {
		t.Hist[b] += o.Hist[b]
	}
}

// phaseNode is one node of the observer's phase tree. Re-opening a phase
// name under the same parent reuses the existing node, so loops (one routing
// exchange per experiment instance, say) accumulate into one node instead of
// growing the tree without bound.
type phaseNode struct {
	name     string
	path     string // "/"-joined ancestry, "" for the root
	parent   *phaseNode
	children []*phaseNode
	byName   map[string]*phaseNode
	self     PhaseTotals
}

func (n *phaseNode) child(name string) *phaseNode {
	if c, ok := n.byName[name]; ok {
		return c
	}
	c := &phaseNode{name: name, parent: n}
	if n.path == "" {
		c.path = name
	} else {
		c.path = n.path + "/" + name
	}
	if n.byName == nil {
		n.byName = make(map[string]*phaseNode)
	}
	n.byName[name] = c
	n.children = append(n.children, c)
	return c
}

// Observer collects phase-attributed round/message/word costs across one or
// more executions (attach it via Config.Obs; every Simulator built from that
// Config reports into it, so a pipeline that chains several simulators —
// decomposition, then routing, then a solver — accumulates one coherent
// tree).
//
// BeginPhase/EndPhase maintain a stack of named phases; every executed round
// is attributed to the innermost open phase (the root when none is open).
// Phase transitions must happen between rounds — from harness code driving
// Execution.Step, or around whole Simulator.Run calls — never from inside a
// Handler.
//
// A nil *Observer is valid everywhere: all methods are nil-receiver-safe
// no-ops, so library code can call cfg.Obs.BeginPhase(...) unconditionally.
// The simulator's steady-state round loop performs zero additional heap
// allocations when an Observer is attached, and none at all when it is nil
// (see TestSteadyStateZeroAllocs).
type Observer struct {
	root   *phaseNode
	cur    *phaseNode
	rounds int // global round counter across all executions
	sink   *traceSink
}

// NewObserver returns an empty Observer ready to attach to a Config.
func NewObserver() *Observer {
	root := &phaseNode{name: "total"}
	return &Observer{root: root, cur: root}
}

// BeginPhase opens a named phase nested inside the currently open phase.
// Re-opening a name under the same parent accumulates into the existing
// node. Safe on a nil Observer (no-op).
func (o *Observer) BeginPhase(name string) {
	if o == nil {
		return
	}
	o.cur = o.cur.child(name)
}

// EndPhase closes the innermost open phase. Calling it with no open phase is
// a no-op, as is calling it on a nil Observer.
func (o *Observer) EndPhase() {
	if o == nil || o.cur.parent == nil {
		return
	}
	o.cur = o.cur.parent
}

// Rounds returns the total number of rounds observed across all executions.
func (o *Observer) Rounds() int {
	if o == nil {
		return 0
	}
	return o.rounds
}

// EnableTrace starts emitting one JSONL trace event per executed round to w,
// buffered through a fixed ring of ringSize events (flushed when full and on
// Flush). ringSize <= 0 defaults to 4096. The caller owns w; call Flush
// before closing it. Safe on a nil Observer (no-op).
func (o *Observer) EnableTrace(w io.Writer, ringSize int) {
	if o == nil {
		return
	}
	if ringSize <= 0 {
		ringSize = 4096
	}
	o.sink = &traceSink{w: w, ring: make([]TraceEvent, ringSize)}
}

// Flush drains the trace ring to the trace writer and reports the first
// write error encountered, if any. Safe on a nil Observer.
func (o *Observer) Flush() error {
	if o == nil || o.sink == nil {
		return nil
	}
	o.sink.flush()
	return o.sink.err
}

// recordRound attributes one executed round to the innermost open phase and,
// when tracing is enabled, appends a trace event. active is the number of
// vertices stepped this round (the step-list length, not the non-halted
// count). hist is drained (merged and zeroed) so the caller can reuse it.
// Called by Execution.Step at the round barrier; never concurrently.
func (o *Observer) recordRound(active int, msgs, words int64, maxWords, wordBits int, hist *[histBuckets]int64) {
	o.rounds++
	bits := words * int64(wordBits)
	t := &o.cur.self
	t.Rounds++
	t.Messages += msgs
	t.Words += words
	t.Bits += bits
	if maxWords > t.MaxWordsPerMsg {
		t.MaxWordsPerMsg = maxWords
	}
	for b, c := range hist {
		if c != 0 {
			t.Hist[b] += c
			hist[b] = 0
		}
	}
	if o.sink != nil {
		o.sink.add(TraceEvent{
			Round:    o.rounds,
			Phase:    o.cur.path,
			Active:   active,
			Messages: msgs,
			Words:    words,
			Bits:     bits,
		})
	}
}

// Replay adds the costs of a previously recorded report to the observer as
// if its rounds had just executed under the innermost open phase: rep's
// root accumulates into that phase, and each nested phase of rep into the
// same-named child, created in rep's order when missing, exactly where
// BeginPhase would have put it. The global round counter advances by
// rep.Rounds, so later trace events keep the round indices a live run would
// give them, but Replay itself emits no trace events. Reports built after a
// replay are identical to ones built after executing the recorded rounds
// live. Safe on a nil Observer or a nil report (no-op).
func (o *Observer) Replay(rep *Report) {
	if o == nil || rep == nil {
		return
	}
	replayInto(o.cur, rep)
	o.rounds += rep.Rounds
}

// replayInto adds r's self costs to n and recurses into r's children. A
// report keeps only rolled-up totals, so self costs are the node's totals
// minus its children's. The largest self message is not recoverable; the
// rolled-up maximum stands in for it, which changes no report because a
// node's reported maximum already covers its descendants.
func replayInto(n *phaseNode, r *Report) {
	self := PhaseTotals{
		Rounds:         r.SelfRounds,
		Messages:       r.Messages,
		Words:          r.Words,
		Bits:           r.Bits,
		MaxWordsPerMsg: r.MaxWordsPerMsg,
		Hist:           histOf(r.MsgSizeHist),
	}
	for _, c := range r.Phases {
		self.Messages -= c.Messages
		self.Words -= c.Words
		self.Bits -= c.Bits
		ch := histOf(c.MsgSizeHist)
		for b := range ch {
			self.Hist[b] -= ch[b]
		}
		replayInto(n.child(c.Name), c)
	}
	n.self.add(&self)
}

// TraceEvent is one per-round record of the JSONL trace stream. Round is the
// observer-global round index (monotone across chained executions); Phase is
// the "/"-joined phase stack at the time the round executed ("" when no
// phase was open); Active counts the vertices stepped during the round —
// halted vertices and sleeping vertices (§3.10 quiescence) are excluded, so
// a round that only waits out SleepUntil timers reports 0; Messages/Words/
// Bits are the costs accounted during the round.
type TraceEvent struct {
	Round    int    `json:"round"`
	Phase    string `json:"phase"`
	Active   int    `json:"active"`
	Messages int64  `json:"messages"`
	Words    int64  `json:"words"`
	Bits     int64  `json:"bits"`
}

// traceSink buffers trace events in a fixed ring and flushes them as JSONL
// when the ring fills. The encode buffer is reused across flushes, so the
// steady state allocates nothing beyond the writer's own cost.
type traceSink struct {
	w    io.Writer
	ring []TraceEvent
	n    int
	buf  []byte
	err  error
}

func (s *traceSink) add(ev TraceEvent) {
	s.ring[s.n] = ev
	s.n++
	if s.n == len(s.ring) {
		s.flush()
	}
}

func (s *traceSink) flush() {
	for i := 0; i < s.n; i++ {
		s.buf = appendTraceEvent(s.buf[:0], &s.ring[i])
		if _, err := s.w.Write(s.buf); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.n = 0
}

// appendTraceEvent hand-encodes one event as a JSON line. Manual encoding
// (rather than encoding/json) keeps the flush path free of reflection and
// per-event allocations.
func appendTraceEvent(b []byte, ev *TraceEvent) []byte {
	b = append(b, `{"round":`...)
	b = strconv.AppendInt(b, int64(ev.Round), 10)
	b = append(b, `,"phase":`...)
	b = strconv.AppendQuote(b, ev.Phase)
	b = append(b, `,"active":`...)
	b = strconv.AppendInt(b, int64(ev.Active), 10)
	b = append(b, `,"messages":`...)
	b = strconv.AppendInt(b, ev.Messages, 10)
	b = append(b, `,"words":`...)
	b = strconv.AppendInt(b, ev.Words, 10)
	b = append(b, `,"bits":`...)
	b = strconv.AppendInt(b, ev.Bits, 10)
	b = append(b, '}', '\n')
	return b
}

// HistBin is one non-empty message-size histogram bucket of a Report.
type HistBin struct {
	// Words labels the bucket: an exact count ("0".."8") or a range
	// ("9-16", ..., ">1024").
	Words string `json:"words"`
	// Count is the number of messages in the bucket.
	Count int64 `json:"count"`
}

// Report is the serializable phase tree of an Observer: one node per phase,
// children in first-opened order. Rounds/Messages/Words/Bits/Hist roll up
// the node's own costs plus all descendants; SelfRounds is the node's own
// share (rounds executed while it was the innermost open phase), so
// Rounds - SelfRounds is what its children account for.
type Report struct {
	Name           string    `json:"name"`
	Rounds         int       `json:"rounds"`
	SelfRounds     int       `json:"self_rounds"`
	Messages       int64     `json:"messages"`
	Words          int64     `json:"words"`
	Bits           int64     `json:"bits"`
	MaxWordsPerMsg int       `json:"max_words_per_msg"`
	MsgSizeHist    []HistBin `json:"msg_size_hist,omitempty"`
	Phases         []*Report `json:"phases,omitempty"`
}

// Report snapshots the observer's phase tree. It may be called at any round
// barrier; the Observer keeps accumulating afterwards. Returns nil on a nil
// Observer.
func (o *Observer) Report() *Report {
	if o == nil {
		return nil
	}
	return buildReport(o.root)
}

func buildReport(n *phaseNode) *Report {
	cum := n.self
	r := &Report{Name: n.name, SelfRounds: n.self.Rounds}
	for _, c := range n.children {
		cr := buildReport(c)
		r.Phases = append(r.Phases, cr)
		cum.add(&PhaseTotals{
			Rounds:         cr.Rounds,
			Messages:       cr.Messages,
			Words:          cr.Words,
			Bits:           cr.Bits,
			MaxWordsPerMsg: cr.MaxWordsPerMsg,
			Hist:           histOf(cr.MsgSizeHist),
		})
	}
	r.Rounds = cum.Rounds
	r.Messages = cum.Messages
	r.Words = cum.Words
	r.Bits = cum.Bits
	r.MaxWordsPerMsg = cum.MaxWordsPerMsg
	for b, c := range cum.Hist {
		if c != 0 {
			r.MsgSizeHist = append(r.MsgSizeHist, HistBin{Words: histLabel(b), Count: c})
		}
	}
	return r
}

// histOf rebuilds the fixed bucket array from a report's sparse bins (exact
// because histLabel is injective over buckets).
func histOf(bins []HistBin) [histBuckets]int64 {
	var h [histBuckets]int64
	for _, bin := range bins {
		for b := 0; b < histBuckets; b++ {
			if histLabel(b) == bin.Words {
				h[b] += bin.Count
				break
			}
		}
	}
	return h
}

// MarshalIndentJSON renders the report as indented JSON (the format
// cmd/simrun -report and cmd/experiments -reportdir write).
func (r *Report) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the phase tree as an indented text table for terminal
// output: one line per phase with rolled-up rounds, messages, words, and the
// phase's own share of rounds.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %10s %12s %12s %6s\n", "phase", "rounds", "messages", "words", "maxw")
	r.writeTree(&sb, 0)
	return sb.String()
}

func (r *Report) writeTree(sb *strings.Builder, depth int) {
	label := strings.Repeat("  ", depth) + r.Name
	if len(r.Phases) > 0 && r.SelfRounds > 0 {
		label += fmt.Sprintf(" (self %d)", r.SelfRounds)
	}
	fmt.Fprintf(sb, "%-40s %10d %12d %12d %6d\n", label, r.Rounds, r.Messages, r.Words, r.MaxWordsPerMsg)
	for _, c := range r.Phases {
		c.writeTree(sb, depth+1)
	}
}
