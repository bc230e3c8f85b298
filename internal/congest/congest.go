package congest

import (
	"errors"
	"fmt"
	"math/rand"

	"expandergap/internal/graph"
)

// Model selects the message-size regime.
type Model int

const (
	// CONGEST limits messages to Θ(log n) bits.
	CONGEST Model = iota + 1
	// LOCAL allows unbounded messages.
	LOCAL
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case CONGEST:
		return "CONGEST"
	case LOCAL:
		return "LOCAL"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Message is a tuple of integer words exchanged along one edge in one round.
type Message []int64

// MaxWords is the CONGEST per-message word budget.
const MaxWords = 8

// Clone returns a copy of m.
func (m Message) Clone() Message { return append(Message(nil), m...) }

// Config parameterizes a simulation run.
type Config struct {
	// Model is CONGEST or LOCAL. Zero value defaults to CONGEST.
	Model Model
	// MaxRounds aborts the run when exceeded. Zero defaults to 1 << 20.
	MaxRounds int
	// Seed drives all vertex PRNGs: vertex v draws from a splitmix64 stream
	// seeded by a hash of (Seed, v).
	Seed int64
	// FaultRate, when positive, drops each message independently with this
	// probability before delivery. The CONGEST model itself is fault-free;
	// this knob exists to exercise the paper's §2.3 failure-detection paths
	// (lost routing tokens must surface as detectable delivery failures,
	// never as wrong answers). Dropped messages still count in Metrics
	// (they were sent). Each drop coin is a pure hash of (Seed, round,
	// sender, receiver), so whether one message drops never depends on what
	// other messages exist or in which order they are delivered — fault
	// patterns are stable under refactors of the scheduler.
	FaultRate float64
	// Obs, when non-nil, receives phase-attributed per-round accounting
	// (and, if enabled on the Observer, a JSONL trace stream). The observer
	// is passive: it never affects message contents, PRNG streams, or
	// termination, so outputs and Metrics are identical with or without it.
	// Several simulators may share one Observer; a pipeline that chains
	// them accumulates a single coherent phase tree. See trace.go and
	// DESIGN.md §3.9.
	Obs *Observer
}

func (c Config) withDefaults() Config {
	if c.Model == 0 {
		c.Model = CONGEST
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1 << 20
	}
	return c
}

// Incoming is a message received from the neighbor on the given port.
type Incoming struct {
	// Port identifies the local port the message arrived on.
	Port int
	// From is the sender's vertex ID (KT1 knowledge: after one round every
	// vertex would know its neighbors' IDs anyway, so the simulator provides
	// them up front).
	From int
	// Msg is the received message. It is valid only until the receiving
	// Round call returns; Clone it to retain it across rounds.
	Msg Message
}

// Handler is the per-vertex algorithm. One Handler instance exists per
// vertex; it keeps the vertex's local state.
type Handler interface {
	// Init runs before the first round. The vertex may send messages (they
	// are delivered in round 1) but cannot receive anything yet.
	Init(v *Vertex)
	// Round runs once per synchronized round with the messages received
	// this round. Sends are delivered next round. round counts from 1.
	Round(v *Vertex, round int, recv []Incoming)
}

// msgArena is one half of the simulator's double-buffered message arena.
// Buffers handed out in round r (parity r&1) are reclaimed when the same
// parity comes around again in round r+2 — by which time every receiver's
// Round call of round r+1 has returned, so no live reference remains.
type msgArena struct {
	buf   []int64
	used  int
	round int // last round this arena served; -1 when fresh
}

// inboxSet holds the inboxes of one round parity: the messages delivered in
// round r sit in inboxes[r&1]. Vertex v's inbox is flat[off[v] :
// off[v]+head[v].n], current only while head[v].round is the round being
// read; a stale head means v received nothing that round. Send writes the
// next round's parity while the stepped vertices read the current one.
type inboxSet struct {
	flat []Incoming
	head []inboxHead
}

// inboxHead is one vertex's inbox header within an inboxSet.
type inboxHead struct {
	round int32 // delivery round of the messages in the inbox
	n     int32 // number of messages
}

// Vertex is the per-vertex view of the network handed to handlers. Handlers
// may only use the exposed methods; the global graph is not reachable from
// it, preserving the locality of the model.
//
// Vertices live in one contiguous value slice; their ports are sub-slices
// of a shared flat array (the CSR layout of DESIGN.md §3.8), and base names
// their first flat slot.
type Vertex struct {
	sim    *Simulator
	id     int
	ports  []int32 // neighbor IDs by port, ascending (view into flat array)
	wakeAt int     // absolute round of the pending SleepUntil timer; 0 = awake
	rng    *rand.Rand
	src    stream // rng's source, reseeded by Start
	output any
	base   int32 // off[id]: port p is flat slot base+p
	halted bool
}

// ID returns this vertex's identifier (0..n-1).
func (v *Vertex) ID() int { return v.id }

// N returns the number of vertices in the network (global knowledge of n is
// the standard assumption in both models).
func (v *Vertex) N() int { return v.sim.g.N() }

// Degree returns the number of ports.
func (v *Vertex) Degree() int { return len(v.ports) }

// NeighborID returns the vertex ID of the neighbor on the given port.
func (v *Vertex) NeighborID(port int) int { return int(v.ports[port]) }

// PortOf returns the port leading to neighbor id, or -1 if id is not a
// neighbor.
func (v *Vertex) PortOf(id int) int {
	lo, hi := 0, len(v.ports)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(v.ports[mid]) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.ports) && int(v.ports[lo]) == id {
		return lo
	}
	return -1
}

// Rand returns this vertex's private deterministic PRNG. It draws from an
// 8-byte splitmix64 stream that Start seeds from (Config.Seed, vertex ID),
// so every execution on a Simulator sees the same draws.
func (v *Vertex) Rand() *rand.Rand { return v.rng }

// stream is splitmix64 (Steele, Lea and Flood 2014) as a rand.Source64: a
// counter stepped by the golden gamma and mixed by mix64. Eight bytes of
// state make reseeding a vertex one store.
type stream uint64

const golden = 0x9e3779b97f4a7c15

func (s *stream) Uint64() uint64 {
	*s += golden
	return mix64(uint64(*s))
}

func (s *stream) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *stream) Seed(seed int64) { *s = stream(seed) }

// mix64 is splitmix64's output function, a bijection on 64-bit words.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// streamSeed is the first state of vertex id's stream under seed: the seed
// mixed by mix64, then the id folded in the way faultCoin folds in a
// message's coordinates. Mixing the seed before the id is added keeps the
// streams of nearby seeds apart: without it, (seed, id) and (seed', id')
// would share a stream whenever seed^golden + id = seed'^golden + id'.
func streamSeed(seed int64, id int) int64 {
	h := mix64(uint64(seed) ^ golden)
	return int64(mix64(h + uint64(id) + golden))
}

// MsgBuf returns a zeroed Message of the given word count backed by the
// simulator's recycling arena. The buffer may be filled and passed to Send /
// Broadcast like any Message; it is reclaimed two rounds later, strictly
// after every receiver's Round call that could observe it has returned
// (receivers Clone to retain). Steady-state use is allocation-free once the
// arena has grown to the run's peak per-round demand.
func (v *Vertex) MsgBuf(words int) Message {
	m := v.sim.alloc(words)
	clear(m)
	return m
}

// alloc hands out the given number of words, not zeroed, from the arena of
// the current round's parity.
func (s *Simulator) alloc(words int) Message {
	a := &s.arenas[s.curRound&1]
	if a.round != s.curRound {
		a.round = s.curRound
		a.used = 0
	}
	if a.used+words > len(a.buf) {
		// Grow into a fresh buffer; Messages already handed out this round
		// keep the old backing array alive until their receivers finish.
		size := 2 * len(a.buf)
		if size < words {
			size = words
		}
		if size < 64 {
			size = 64
		}
		a.buf = make([]int64, size)
		a.used = 0
	}
	m := a.buf[a.used : a.used+words : a.used+words]
	a.used += words
	return Message(m)
}

// Send delivers msg to the neighbor on port in the next round. Sending twice
// to the same port in one round, sending on an invalid port, or exceeding the
// CONGEST budget panics.
//
// Delivery happens here, at send time: the send stamps the port's slot with
// the delivery round, adds its costs to the run's Metrics and the observer's
// round histogram, draws the message's fault coin, and, if the message
// survives it, writes it straight into the receiver's inbox for the next
// round's parity. Vertices send in ascending ID order (Init and the step
// list both ascend), so every inbox is ascending by sender ID.
func (v *Vertex) Send(port int, msg Message) {
	if port < 0 || port >= len(v.ports) {
		panic(fmt.Sprintf("congest: vertex %d send on invalid port %d (degree %d)", v.id, port, len(v.ports)))
	}
	s := v.sim
	slot := int(v.base) + port
	due := int32(s.curRound + 1)
	if s.sentAt[slot] == due {
		panic(fmt.Sprintf("congest: vertex %d sent twice on port %d in one round", v.id, port))
	}
	s.checkMessage(v.id, msg)
	if len(msg) == 0 {
		// Receivers see an empty message, never a nil one.
		msg = Message{}
	}
	s.sentAt[slot] = due
	s.pendingMsgs++
	words := len(msg)
	s.metrics.Messages++
	s.metrics.Words += int64(words)
	if words > s.metrics.MaxWordsPerMsg {
		s.metrics.MaxWordsPerMsg = words
	}
	if s.obs != nil {
		s.roundHist[histBucket(words)]++
		if words > s.roundMax {
			s.roundMax = words
		}
	}
	rcv := v.ports[port]
	if fault := s.cfg.FaultRate; fault > 0 && faultCoin(s.cfg.Seed, int(due), v.id, int(rcv)) < fault {
		return // dropped in transit: sent, but delivered to no one
	}
	in := &s.inboxes[due&1]
	h := &in.head[rcv]
	if h.round != due {
		*h = inboxHead{round: due}
		s.next.add(rcv)
	}
	// Field by field: a composite literal is built on the stack and copied.
	dst := &in.flat[s.off[rcv]+h.n]
	dst.Port = int(s.rportFlat[slot])
	dst.From = v.id
	dst.Msg = msg
	h.n++
}

// SendWords sends an arena-backed message with the given words on port: the
// allocation-free equivalent of Send(port, Message{words...}).
func (v *Vertex) SendWords(port int, words ...int64) {
	buf := v.sim.alloc(len(words))
	for i, w := range words {
		buf[i] = w
	}
	v.Send(port, buf)
}

// Broadcast sends msg to every neighbor (ports that already carry a message
// this round are skipped). Each neighbor receives its own copy.
func (v *Vertex) Broadcast(msg Message) {
	due := int32(v.sim.curRound + 1)
	for p := range v.ports {
		if v.sim.sentAt[int(v.base)+p] != due {
			v.Send(p, msg.Clone())
		}
	}
}

// BroadcastWords sends one arena-backed message with the given words to
// every neighbor whose port is free this round: the allocation-free
// equivalent of Broadcast(Message{words...}). All receivers observe the same
// backing buffer, which is safe under the arena contract (received messages
// are read-only and expire when Round returns).
func (v *Vertex) BroadcastWords(words ...int64) {
	s := v.sim
	buf := s.alloc(len(words))
	for i, w := range words {
		buf[i] = w
	}
	due := int32(s.curRound + 1)
	for p := range v.ports {
		if s.sentAt[int(v.base)+p] != due {
			v.Send(p, buf)
		}
	}
}

// Halt marks the vertex as finished. A halted vertex stops receiving Round
// calls; its sends of the current round are still delivered (the run executes
// one more round to deliver them). The simulation ends when all vertices have
// halted and every message sent has been delivered.
func (v *Vertex) Halt() {
	if !v.halted {
		v.halted = true
		v.sim.haltedCount++
	}
}

// SleepUntil declares quiescence until the given absolute round (as passed
// to Round): the vertex stops receiving Round calls until that round, or
// until a message arrives on any of its ports, whichever comes first. A
// message wakes it in the round the message is delivered, with that message
// in recv, and cancels the timer. A message dropped by fault injection does
// not wake the vertex: wakes are decided after the fault filter, so sleeping
// never changes what a vertex observes. It is the simulator's one sleep
// primitive, made for the fixed schedules of the paper's phases: a vertex
// sleeps through its idle stretch and wakes exactly on its next scheduled
// round, and a round past the run's end waits for a message alone.
// Sleeping is only legal when the handler would otherwise do nothing
// observable in the skipped rounds: no sends, no Rand() draws, no state
// changes (see DESIGN.md §3.10). Sends from the current round are still
// delivered. Unlike Halt, sleeping does not count toward termination. A
// round at or before the next round is a no-op (the vertex simply stays
// awake), as is calling it on a halted vertex.
func (v *Vertex) SleepUntil(round int) {
	if v.halted || round <= v.sim.curRound+1 {
		return
	}
	v.wakeAt = round
}

// SetOutput records the vertex's final output, retrievable from Result.
func (v *Vertex) SetOutput(out any) { v.output = out }

// Metrics aggregates communication costs of a run.
type Metrics struct {
	// Rounds is the number of synchronized rounds executed.
	Rounds int
	// Messages is the total number of messages sent.
	Messages int64
	// Words is the total number of message words sent.
	Words int64
	// MaxWordsPerMsg is the largest single message observed (interesting in
	// LOCAL mode where it is unbounded).
	MaxWordsPerMsg int
}

// BitsPerWord returns the model-level size of one word for an n-vertex
// network: ⌈log₂(max(n,2))⌉ bits, i.e. Θ(log n).
func BitsPerWord(n int) int {
	if n < 2 {
		n = 2
	}
	bits := 0
	for v := 1; v < n; v *= 2 {
		bits++
	}
	if bits < 1 {
		bits = 1
	}
	return bits
}

// TotalBits returns the total bits sent during the run under the word-size
// accounting for an n-vertex network.
func (m Metrics) TotalBits(n int) int64 {
	return m.Words * int64(BitsPerWord(n))
}

// Add accumulates other into m (for multi-phase algorithms).
func (m *Metrics) Add(other Metrics) {
	m.Rounds += other.Rounds
	m.Messages += other.Messages
	m.Words += other.Words
	if other.MaxWordsPerMsg > m.MaxWordsPerMsg {
		m.MaxWordsPerMsg = other.MaxWordsPerMsg
	}
}

// Result is the outcome of a simulation run.
type Result struct {
	Metrics Metrics
	// Outputs holds each vertex's SetOutput value (nil if never set),
	// indexed by vertex ID.
	Outputs []any
}

// ErrMaxRounds is returned when a run exceeds Config.MaxRounds.
var ErrMaxRounds = errors.New("congest: exceeded maximum rounds without termination")

// Simulator executes distributed algorithms on a fixed graph.
//
// The CSR vertex layout and all per-run buffers are cached on the Simulator
// and reused, so repeated Run calls on one Simulator cost only the handler
// construction the caller performs. A Simulator supports one execution at a
// time; it is not safe for concurrent use.
type Simulator struct {
	g       *graph.Graph
	cfg     Config
	metrics Metrics
	wordCap int64

	// Observability (nil when Config.Obs is unset; see trace.go). roundHist
	// and roundMax collect the current round's message-size histogram and
	// largest message as Send counts them; recordRound drains them.
	// wordBits caches BitsPerWord(n) for bit attribution.
	obs       *Observer
	wordBits  int
	roundHist [histBuckets]int64
	roundMax  int

	// O(1) termination tracking (DESIGN.md §3.8): haltedCount is the number
	// of vertices that have halted (Halt counts it), pendingMsgs the number
	// of messages sent by the most recent Init/compute phase, dropped ones
	// included (Send counts it, Step zeroes it once the next round's step
	// list is assembled).
	haltedCount int
	pendingMsgs int64
	// curRound is the round whose compute (or Init, round 0) phase is
	// executing; read-only during phases, it selects the arena parity.
	curRound int

	// CSR layout, built once per Simulator and shared by all executions:
	// vertex v's ports, reverse ports, send stamps, and inbox slots are the
	// flat-array ranges [off[v], off[v+1]). Flat index off[v]+p names v's
	// port p; rportFlat[off[v]+p] is the port on neighbor
	// portsFlat[off[v]+p] that leads back to v.
	off       []int32
	portsFlat []int32
	rportFlat []int32

	// Reusable per-run state.
	verts    []Vertex
	handlers []Handler
	active   bool
	// sentAt[off[v]+p] is the delivery round of v's latest send on port p,
	// 0 before its first. Send panics on a second send stamped with the
	// same round; Broadcast skips the ports already stamped.
	sentAt  []int32
	inboxes [2]inboxSet // by delivery-round parity
	arenas  [2]msgArena // by send-round parity

	// Sparse activation scheduler (sched.go, DESIGN.md §3.10), preallocated
	// by buildLayout, keeping the steady-state round loop allocation-free
	// while costing O(stepped + messages) per round instead of O(n + m).
	stepList []int32   // vertices stepped this round, ascending
	next     idSet     // candidates for the next round, read out in ID order
	wakes    wakeWheel // pending SleepUntil wakes, one entry per vertex
}

// NewSimulator returns a Simulator for g under cfg.
func NewSimulator(g *graph.Graph, cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	wordCap := int64(g.N()) * int64(g.N())
	if wordCap < 1<<16 {
		wordCap = 1 << 16
	}
	return &Simulator{g: g, cfg: cfg, wordCap: wordCap, obs: cfg.Obs, wordBits: BitsPerWord(g.N())}
}

// Config returns the effective configuration.
func (s *Simulator) Config() Config { return s.cfg }

// checkMessage validates msg against the model; Send calls it before
// changing anything, so a violation panics with the run state untouched.
func (s *Simulator) checkMessage(sender int, msg Message) {
	if s.cfg.Model == LOCAL {
		return
	}
	if len(msg) > MaxWords {
		panic(fmt.Sprintf("congest: vertex %d sent %d words, CONGEST budget is %d",
			sender, len(msg), MaxWords))
	}
	for _, w := range msg {
		if w > s.wordCap || w < -s.wordCap {
			panic(fmt.Sprintf("congest: vertex %d sent word %d exceeding magnitude cap %d",
				sender, w, s.wordCap))
		}
	}
}

// faultCoin returns a uniform [0,1) coin for the message delivered to
// receiver `to` from sender `from` in the given round, as a pure
// splitmix64-style hash of (seed, round, from, to): the seed mixed by mix64,
// as streamSeed mixes it, then each coordinate folded in. Each message's drop
// decision therefore depends only on its own coordinates — never on how many
// other messages exist or in which order delivery scans them — and nearby
// seeds drop unrelated messages, not the same ones shifted in round.
func faultCoin(seed int64, round, from, to int) float64 {
	h := mix64(uint64(seed) ^ golden)
	for _, w := range [3]uint64{uint64(round), uint64(from), uint64(to)} {
		h = mix64(h + w + golden)
	}
	return float64(h>>11) / (1 << 53)
}

// buildLayout computes the CSR vertex layout (flat ports, reverse ports, and
// per-vertex offsets) once per Simulator. Reverse ports are derived with a
// counting pass instead of per-edge binary search: visiting vertices in
// ascending ID order, the position of id in neighbor u's (sorted) port list
// is exactly the number of u's neighbors already visited.
func (s *Simulator) buildLayout() {
	if s.off != nil {
		return
	}
	n := s.g.N()
	s.off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		s.off[v+1] = s.off[v] + int32(s.g.Degree(v))
	}
	total := int(s.off[n])
	s.portsFlat = make([]int32, total)
	s.rportFlat = make([]int32, total)
	cursor := make([]int32, n)
	for v := 0; v < n; v++ {
		i := s.off[v]
		s.g.ForEachNeighbor(v, func(u, _ int) {
			s.portsFlat[i] = int32(u)
			s.rportFlat[i] = cursor[u]
			cursor[u]++
			i++
		})
	}
	s.sentAt = make([]int32, total)
	for p := range s.inboxes {
		s.inboxes[p] = inboxSet{flat: make([]Incoming, total), head: make([]inboxHead, n)}
	}
	s.verts = make([]Vertex, n)
	s.handlers = make([]Handler, n)
	s.stepList = make([]int32, 0, n)
	s.next = newIDSet(n)
	s.wakes = newWakeWheel(n)
	for v := 0; v < n; v++ {
		lo, hi := s.off[v], s.off[v+1]
		s.verts[v] = Vertex{sim: s, id: v, base: lo, ports: s.portsFlat[lo:hi:hi]}
		s.verts[v].rng = rand.New(&s.verts[v].src)
	}
}

// Execution is one in-flight run of an algorithm on a Simulator, created by
// Start. Step advances it one synchronized round at a time; Finish collects
// the result. Run wraps the three for the common case. The Step path
// performs no heap allocations in the steady state, which is what the
// substrate benchmarks measure.
type Execution struct {
	s      *Simulator
	round  int
	closed bool
	// obsPrev is the metrics snapshot at the previous round barrier; the
	// delta against it is what Step attributes to the observer's current
	// phase. Sends made during Init are included in round 1's delta.
	obsPrev Metrics
}

// Start resets the Simulator's run state, constructs one handler per vertex
// via newHandler, executes the Init phase, and returns the Execution ready
// for its first Step. A Simulator supports one active execution at a time;
// Close (or Finish via Run) releases it.
func (s *Simulator) Start(newHandler func(v *Vertex) Handler) *Execution {
	if s.active {
		panic("congest: Start called while a previous execution is active")
	}
	s.active = true
	s.buildLayout()
	n := s.g.N()
	s.metrics = Metrics{}
	s.haltedCount = 0
	s.pendingMsgs = 0
	s.curRound = 0
	s.roundHist = [histBuckets]int64{}
	s.roundMax = 0
	for i := range s.verts {
		v := &s.verts[i]
		v.halted = false
		v.wakeAt = 0
		v.output = nil
		v.rng.Seed(streamSeed(s.cfg.Seed, v.id))
	}
	for p := range s.arenas {
		s.arenas[p].used, s.arenas[p].round = 0, -1
	}
	for id := 0; id < n; id++ {
		s.handlers[id] = newHandler(&s.verts[id])
	}
	// Init's sends stamp ports and fill inboxes, so whatever a failed run
	// left there must be cleared first.
	s.resetSchedule()
	for id := 0; id < n; id++ {
		s.handlers[id].Init(&s.verts[id])
		s.settle(&s.verts[id])
	}
	return &Execution{s: s}
}

// Step executes one synchronized round: the barrier assembly of the step
// list (the next-round set plus the due wakes), then compute over the step
// list in ascending ID order, each vertex settling into the next round's
// set as its call returns. The round's messages were delivered as they were
// sent. It reports done=true (without executing anything) once every
// vertex has halted and every message sent has been delivered — an O(1)
// check against the running counters — and ErrMaxRounds when the round
// budget is exhausted.
func (e *Execution) Step() (done bool, err error) {
	s := e.s
	if s.haltedCount == s.g.N() && s.pendingMsgs == 0 {
		return true, nil
	}
	round := e.round + 1
	if round > s.cfg.MaxRounds {
		return false, fmt.Errorf("%w (limit %d)", ErrMaxRounds, s.cfg.MaxRounds)
	}
	e.round = round
	s.curRound = round
	s.metrics.Rounds++
	s.assembleStepList(round)
	s.pendingMsgs = 0
	in := &s.inboxes[round&1]
	for _, id := range s.stepList {
		v := &s.verts[id]
		var recv []Incoming
		if h := in.head[id]; h.round == int32(round) {
			lo := v.base
			recv = in.flat[lo : lo+h.n : lo+h.n]
		}
		s.handlers[id].Round(v, round, recv)
		s.settle(v)
	}
	if s.obs != nil {
		m := s.metrics
		s.obs.recordRound(
			len(s.stepList),
			m.Messages-e.obsPrev.Messages,
			m.Words-e.obsPrev.Words,
			s.roundMax, s.wordBits, &s.roundHist)
		s.roundMax = 0
		e.obsPrev = m
	}
	return false, nil
}

// BeginPhase opens a named observer phase nested inside the current one;
// rounds executed by subsequent Step calls (on this or any other Execution
// sharing the Observer) are attributed to it. Call it between rounds, never
// from inside a Handler. A no-op when no Observer is configured.
func (e *Execution) BeginPhase(name string) { e.s.obs.BeginPhase(name) }

// EndPhase closes the innermost open observer phase. A no-op when no
// Observer is configured.
func (e *Execution) EndPhase() { e.s.obs.EndPhase() }

// Metrics returns the metrics accumulated so far (exact at every round
// barrier).
func (e *Execution) Metrics() Metrics { return e.s.metrics }

// Round returns the number of rounds executed so far.
func (e *Execution) Round() int { return e.round }

// Finish collects the per-vertex outputs and releases the execution (Close
// is implied). It may be called once, after Step reported done.
func (e *Execution) Finish() Result {
	n := e.s.g.N()
	outs := make([]any, n)
	for id := 0; id < n; id++ {
		outs[id] = e.s.verts[id].output
	}
	res := Result{Metrics: e.s.metrics, Outputs: outs}
	e.Close()
	return res
}

// Close re-arms the Simulator for the next Start. It is idempotent and safe
// to defer alongside Finish.
func (e *Execution) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.s.active = false
}

// Run executes the algorithm produced by newHandler on every vertex until
// all halt (and every message sent is delivered) or MaxRounds is exceeded.
// It returns the per-vertex outputs and aggregated metrics. Run may be
// called repeatedly; each call is an independent execution (metrics reset)
// that reuses the Simulator's cached layout and buffers.
func (s *Simulator) Run(newHandler func(v *Vertex) Handler) (Result, error) {
	e := s.Start(newHandler)
	defer e.Close()
	for {
		done, err := e.Step()
		if err != nil {
			return Result{Metrics: s.metrics}, err
		}
		if done {
			break
		}
	}
	return e.Finish(), nil
}

// RunFuncs is a convenience for algorithms expressible as closures.
type RunFuncs struct {
	InitFn  func(v *Vertex)
	RoundFn func(v *Vertex, round int, recv []Incoming)
}

// Init implements Handler.
func (r RunFuncs) Init(v *Vertex) {
	if r.InitFn != nil {
		r.InitFn(v)
	}
}

// Round implements Handler.
func (r RunFuncs) Round(v *Vertex, round int, recv []Incoming) {
	if r.RoundFn != nil {
		r.RoundFn(v, round, recv)
	}
}

var _ Handler = RunFuncs{}
