package congest_test

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// steadyHandler is the non-terminating broadcast workload shared by the
// allocation and overhead tests.
func steadyHandler(v *congest.Vertex) congest.Handler {
	val := int64(v.ID())
	return congest.RunFuncs{
		InitFn: func(v *congest.Vertex) { v.BroadcastWords(val) },
		RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			v.BroadcastWords(val)
		},
	}
}

// TestObserverNilSafe proves every Observer method is a no-op on a nil
// receiver, which is what lets library code call cfg.Obs unconditionally.
func TestObserverNilSafe(t *testing.T) {
	var obs *congest.Observer
	obs.BeginPhase("a")
	obs.EndPhase()
	obs.EnableTrace(io.Discard, 16)
	if err := obs.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if obs.Report() != nil {
		t.Fatal("nil Report should be nil")
	}
	if obs.Rounds() != 0 {
		t.Fatal("nil Rounds should be 0")
	}
}

// TestPhaseAttribution drives one execution through named phases and checks
// the report's structure: rounds land in the innermost open phase, closed
// phases stop accumulating, re-opened names merge into the existing node,
// and the root rolls everything up.
func TestPhaseAttribution(t *testing.T) {
	g := graph.Grid(8, 8)
	obs := congest.NewObserver()
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, Obs: obs})
	ex := sim.Start(steadyHandler)
	defer ex.Close()

	step := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := ex.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ex.BeginPhase("alpha")
	step(3)
	ex.BeginPhase("inner")
	step(2)
	ex.EndPhase()
	ex.EndPhase()
	ex.BeginPhase("beta")
	step(4)
	ex.EndPhase()
	ex.BeginPhase("alpha") // re-open: must merge into the first alpha node
	step(1)
	ex.EndPhase()

	r := obs.Report()
	if r.Rounds != 10 || r.SelfRounds != 0 {
		t.Fatalf("root rounds = %d (self %d), want 10 (self 0)", r.Rounds, r.SelfRounds)
	}
	if len(r.Phases) != 2 {
		t.Fatalf("root has %d children, want 2 (alpha, beta)", len(r.Phases))
	}
	alpha, beta := r.Phases[0], r.Phases[1]
	if alpha.Name != "alpha" || alpha.Rounds != 6 || alpha.SelfRounds != 4 {
		t.Errorf("alpha = %s rounds=%d self=%d, want alpha/6/4", alpha.Name, alpha.Rounds, alpha.SelfRounds)
	}
	if len(alpha.Phases) != 1 || alpha.Phases[0].Name != "inner" || alpha.Phases[0].Rounds != 2 {
		t.Errorf("alpha children = %+v, want one inner node with 2 rounds", alpha.Phases)
	}
	if beta.Name != "beta" || beta.Rounds != 4 {
		t.Errorf("beta = %s rounds=%d, want beta/4", beta.Name, beta.Rounds)
	}
	// Every broadcast message is 1 word on this workload, so the root
	// histogram must put all messages in the "1" bucket.
	if len(r.MsgSizeHist) != 1 || r.MsgSizeHist[0].Words != "1" || r.MsgSizeHist[0].Count != r.Messages {
		t.Errorf("root histogram = %+v, want all %d messages in bucket \"1\"", r.MsgSizeHist, r.Messages)
	}
	if r.Bits != r.Words*int64(congest.BitsPerWord(g.N())) {
		t.Errorf("root bits = %d, want words %d × %d bits/word", r.Bits, r.Words, congest.BitsPerWord(g.N()))
	}
}

// TestTraceJSONL runs a terminating workload with a deliberately tiny ring
// (forcing mid-run flushes) and validates the emitted stream: every line is
// valid JSON, rounds are consecutive from 1, and the event totals reconcile
// with the run's Metrics.
func TestTraceJSONL(t *testing.T) {
	g := graph.Grid(8, 8)
	obs := congest.NewObserver()
	var buf bytes.Buffer
	obs.EnableTrace(&buf, 3)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, Obs: obs})
	res, err := sim.Run(floodHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != res.Metrics.Rounds {
		t.Fatalf("trace has %d events, want one per round (%d)", len(lines), res.Metrics.Rounds)
	}
	var msgs, words, bits int64
	for i, line := range lines {
		var ev congest.TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if ev.Round != i+1 {
			t.Fatalf("line %d has round %d, want %d", i+1, ev.Round, i+1)
		}
		if ev.Active < 0 || ev.Active > g.N() {
			t.Fatalf("round %d active = %d out of range", ev.Round, ev.Active)
		}
		msgs += ev.Messages
		words += ev.Words
		bits += ev.Bits
	}
	if msgs != res.Metrics.Messages || words != res.Metrics.Words {
		t.Errorf("trace totals msgs=%d words=%d, metrics %d/%d",
			msgs, words, res.Metrics.Messages, res.Metrics.Words)
	}
	if bits != res.Metrics.TotalBits(g.N()) {
		t.Errorf("trace bits = %d, want %d", bits, res.Metrics.TotalBits(g.N()))
	}
	// The final event must report zero active vertices: the last round is
	// where the last vertex halts (final sends are delivered in it).
	var last congest.TraceEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Active != 0 {
		t.Errorf("final event active = %d, want 0", last.Active)
	}
}

// TestReportJSONSchema checks the serialized report parses as generic JSON
// and exposes the documented fields.
func TestReportJSONSchema(t *testing.T) {
	g := graph.Grid(8, 8)
	obs := congest.NewObserver()
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, Obs: obs})
	obs.BeginPhase("flood")
	if _, err := sim.Run(floodHandler); err != nil {
		t.Fatal(err)
	}
	obs.EndPhase()
	data, err := obs.Report().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, field := range []string{"name", "rounds", "self_rounds", "messages", "words", "bits", "max_words_per_msg", "phases"} {
		if _, ok := generic[field]; !ok {
			t.Errorf("report JSON missing field %q", field)
		}
	}
	phases := generic["phases"].([]any)
	if len(phases) != 1 || phases[0].(map[string]any)["name"] != "flood" {
		t.Errorf("report phases = %v, want single flood child", phases)
	}
}

// TestObserverDoesNotChangeResults runs the golden Luby workload with an
// observer (and tracing) attached and checks the metrics and outputs are
// bit-identical to the pinned observer-free values — the layer is passive.
// Covered for both executors in TestGoldenPhaseTreeDeterminism; this test
// pins the sequential case against the golden constants directly.
func TestObserverDoesNotChangeResults(t *testing.T) {
	g := graph.Grid(16, 16)
	obs := congest.NewObserver()
	obs.EnableTrace(io.Discard, 64)
	res, err := congest.NewSimulator(g, congest.Config{Seed: 1, Obs: obs}).Run(floodHandler)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Rounds != 31 || m.Messages != 960 || m.Words != 960 || m.MaxWordsPerMsg != 1 {
		t.Errorf("observed flood metrics %+v differ from golden (31/960/960/1)", m)
	}
	if got := obs.Rounds(); got != m.Rounds {
		t.Errorf("observer counted %d rounds, metrics say %d", got, m.Rounds)
	}
}

// TestSteadyStateZeroAllocsObserved is the tracing-disabled overhead budget
// of DESIGN.md §3.9: with an Observer attached but no trace sink, the warm
// Step loop must still perform zero heap allocations per round.
func TestSteadyStateZeroAllocsObserved(t *testing.T) {
	g := graph.Grid(16, 16)
	obs := congest.NewObserver()
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, Obs: obs})
	obs.BeginPhase("steady")
	defer obs.EndPhase()
	ex := sim.Start(steadyHandler)
	defer ex.Close()
	for i := 0; i < 4; i++ {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("observed steady-state Step allocates %.1f times per round, want 0", allocs)
	}
}

// benchSteadySteps measures the warm Step loop's ns/op under the given
// config (MaxRounds is raised so the benchmark can run as many rounds as it
// needs).
func benchSteadySteps(b *testing.B, obs *congest.Observer) {
	g := graph.Grid(16, 16)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, MaxRounds: 1 << 30, Obs: obs})
	ex := sim.Start(steadyHandler)
	defer ex.Close()
	for i := 0; i < 4; i++ {
		if _, err := ex.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTracingOverheadBounded enforces the §3.9 enabled-tracing budget: a
// steady-state round with JSONL tracing active (writing to io.Discard) must
// cost less than 2× the untraced round. The 2× bound is deliberately loose —
// the point is to catch accidental per-round allocation or reflection
// creeping into the trace path, not to benchmark precisely.
func TestTracingOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	base := testing.Benchmark(func(b *testing.B) { benchSteadySteps(b, nil) })
	traced := testing.Benchmark(func(b *testing.B) {
		obs := congest.NewObserver()
		obs.EnableTrace(io.Discard, 4096)
		benchSteadySteps(b, obs)
	})
	if base.NsPerOp() <= 0 {
		t.Skipf("degenerate base measurement: %v", base)
	}
	ratio := float64(traced.NsPerOp()) / float64(base.NsPerOp())
	t.Logf("steady-state Step: base %v/op, traced %v/op (ratio %.2f)", base.NsPerOp(), traced.NsPerOp(), ratio)
	if ratio >= 2.0 {
		t.Errorf("tracing overhead ratio %.2f, budget is < 2.0", ratio)
	}
}

// runRounds executes one terminating run under obs in which every vertex
// broadcasts a message of the given word count for the given number of
// rounds, then halts.
func runRounds(t *testing.T, g *graph.Graph, obs *congest.Observer, words, rounds int) {
	t.Helper()
	msg := make([]int64, words)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, Model: congest.LOCAL, Obs: obs})
	_, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) { v.BroadcastWords(msg...) },
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				if round >= rounds {
					v.Halt()
					return
				}
				v.BroadcastWords(msg...)
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestObserverReplay records a nested phase tree with mixed message sizes
// and root self rounds on one observer, replays its report into a second
// observer inside an open phase that already has a same-named child, and
// checks that the second observer ends up with exactly the report, round
// count and later trace events of an observer that executed the recorded
// rounds live — while the replay itself emits no trace event.
func TestObserverReplay(t *testing.T) {
	g := graph.Grid(5, 5)
	record := func(o *congest.Observer) {
		o.BeginPhase("a")
		runRounds(t, g, o, 1, 2)
		o.BeginPhase("a1")
		runRounds(t, g, o, 3, 1)
		o.EndPhase()
		o.BeginPhase("a2")
		runRounds(t, g, o, 12, 2)
		o.EndPhase()
		o.EndPhase()
		o.BeginPhase("b")
		runRounds(t, g, o, 2, 3)
		o.EndPhase()
		runRounds(t, g, o, 1, 1) // the recorded root's own rounds
	}
	recorder := congest.NewObserver()
	record(recorder)
	rep := recorder.Report()

	var liveTrace, replayTrace bytes.Buffer
	live, replayed := congest.NewObserver(), congest.NewObserver()
	live.EnableTrace(&liveTrace, 1)
	replayed.EnableTrace(&replayTrace, 1)
	for i, o := range []*congest.Observer{live, replayed} {
		runRounds(t, g, o, 1, 1)
		o.BeginPhase("outer")
		runRounds(t, g, o, 5, 1)
		o.BeginPhase("b")
		runRounds(t, g, o, 1, 2)
		o.EndPhase()
		if i == 0 {
			record(o)
		} else {
			before := replayTrace.Len()
			o.Replay(rep)
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			if replayTrace.Len() != before {
				t.Fatal("Replay emitted trace events")
			}
		}
		o.BeginPhase("after")
		runRounds(t, g, o, 4, 2)
		o.EndPhase()
		o.EndPhase()
		if err := o.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if lr, rr := live.Report(), replayed.Report(); !reflect.DeepEqual(lr, rr) {
		t.Fatalf("report after replay differs from the live one:\nlive\n%s\nreplayed\n%s", lr, rr)
	}
	if live.Rounds() != replayed.Rounds() {
		t.Fatalf("rounds %d after replay, %d live", replayed.Rounds(), live.Rounds())
	}
	liveEvents := bytes.Split(bytes.TrimSpace(liveTrace.Bytes()), []byte("\n"))
	replayEvents := bytes.Split(bytes.TrimSpace(replayTrace.Bytes()), []byte("\n"))
	if len(liveEvents)-len(replayEvents) != rep.Rounds {
		t.Fatalf("%d live events, %d with replay; replayed report has %d rounds", len(liveEvents), len(replayEvents), rep.Rounds)
	}
	// Events after the replay keep the live round indices and phase paths.
	for i := 1; i <= 2; i++ {
		l, r := liveEvents[len(liveEvents)-i], replayEvents[len(replayEvents)-i]
		if !bytes.Equal(l, r) {
			t.Errorf("event after the replay %s, live %s", r, l)
		}
	}

	var nilObs *congest.Observer
	nilObs.Replay(rep)
	replayed.Replay(nil)
	if !reflect.DeepEqual(live.Report(), replayed.Report()) {
		t.Error("Replay(nil) changed the report")
	}
}
