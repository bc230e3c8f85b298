package congest_test

import (
	"hash/fnv"
	"testing"

	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// floodHandler is the pinned min-distance flood workload: vertex 0 broadcasts
// distance 0; every other vertex adopts 1 + min over received distances,
// rebroadcasts once, and halts.
func floodHandler(v *congest.Vertex) congest.Handler {
	seen := v.ID() == 0
	dist := 0
	return congest.RunFuncs{
		InitFn: func(v *congest.Vertex) {
			if seen {
				v.Broadcast(congest.Message{0})
			}
		},
		RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			if !seen && len(recv) > 0 {
				seen = true
				best := recv[0].Msg[0]
				for _, in := range recv[1:] {
					if in.Msg[0] < best {
						best = in.Msg[0]
					}
				}
				dist = int(best) + 1
				v.Broadcast(congest.Message{int64(dist)})
			}
			if seen {
				v.SetOutput(dist)
				v.Halt()
			}
		},
	}
}

// TestGoldenDeterminism pins the exact outputs and metrics of two fixed-seed
// workloads (grid flood and Luby MIS). The values were captured from the
// pre-CSR simulator, so this test proves the zero-allocation layout and the
// fused round barrier are behavior-preserving. The Luby values were
// re-pinned once when vertex PRNGs became splitmix64 streams.
func TestGoldenDeterminism(t *testing.T) {
	const (
		goldenFloodRounds  = 31
		goldenFloodMsgs    = 960
		goldenFloodWords   = 960
		goldenFloodDistSum = 3840

		goldenLubyRounds = 10
		goldenLubyMsgs   = 1722
		goldenLubyWords  = 4404
		goldenLubySize   = 102
		goldenLubyHash   = -316881767681296126
	)
	g := graph.Grid(16, 16)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	res, err := sim.Run(floodHandler)
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	m := res.Metrics
	if m.Rounds != goldenFloodRounds || m.Messages != goldenFloodMsgs ||
		m.Words != goldenFloodWords || m.MaxWordsPerMsg != 1 {
		t.Errorf("flood metrics = %+v, want rounds=%d msgs=%d words=%d maxw=1",
			m, goldenFloodRounds, goldenFloodMsgs, goldenFloodWords)
	}
	sum := 0
	for _, o := range res.Outputs {
		sum += o.(int)
	}
	if sum != goldenFloodDistSum {
		t.Errorf("flood distance sum = %d, want %d", sum, goldenFloodDistSum)
	}

	set, lm, err := maxis.LubyMIS(g, congest.Config{Seed: 7})
	if err != nil {
		t.Fatalf("luby: %v", err)
	}
	if lm.Rounds != goldenLubyRounds || lm.Messages != goldenLubyMsgs ||
		lm.Words != goldenLubyWords || lm.MaxWordsPerMsg != 3 {
		t.Errorf("luby metrics = %+v, want rounds=%d msgs=%d words=%d maxw=3",
			lm, goldenLubyRounds, goldenLubyMsgs, goldenLubyWords)
	}
	h := 0
	for _, v := range set {
		h = h*31 + v
	}
	if len(set) != goldenLubySize || h != goldenLubyHash {
		t.Errorf("luby |set|=%d hash=%d, want %d/%d", len(set), h, goldenLubySize, goldenLubyHash)
	}
}

// TestGoldenPhaseTreeDeterminism runs the golden workloads with an Observer
// attached and pins that (a) the metrics stay bit-identical to the
// observer-free golden values, and (b) the entire serialized phase tree —
// names, nesting, per-phase rounds/messages/words/bits and histograms —
// hashes to the value the simulator produced before Send fed the observer's
// round histogram directly (FNV-64a of MarshalIndentJSON), re-pinned with
// the Luby values.
func TestGoldenPhaseTreeDeterminism(t *testing.T) {
	g := graph.Grid(16, 16)
	obs := congest.NewObserver()
	cfg := congest.Config{Seed: 1, Obs: obs}

	obs.BeginPhase("flood")
	res, err := congest.NewSimulator(g, cfg).Run(floodHandler)
	obs.EndPhase()
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	m := res.Metrics
	if m.Rounds != 31 || m.Messages != 960 || m.Words != 960 || m.MaxWordsPerMsg != 1 {
		t.Errorf("observed flood metrics %+v differ from golden", m)
	}

	lubyCfg := congest.Config{Seed: 7, Obs: obs}
	set, lm, err := maxis.LubyMIS(g, lubyCfg) // self-names the "luby" phase
	if err != nil {
		t.Fatalf("luby: %v", err)
	}
	if lm.Rounds != 10 || lm.Messages != 1722 || lm.Words != 4404 || len(set) != 102 {
		t.Errorf("observed luby metrics %+v |set|=%d differ from golden", lm, len(set))
	}

	rep := obs.Report()
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "flood" || rep.Phases[1].Name != "luby" {
		t.Fatalf("phase tree children = %+v, want [flood luby]", rep.Phases)
	}
	if rep.Phases[0].Rounds != 31 || rep.Phases[1].Rounds != 10 {
		t.Errorf("phase rounds = %d/%d, want 31/10", rep.Phases[0].Rounds, rep.Phases[1].Rounds)
	}
	data, err := rep.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if got := h.Sum64(); got != 0x32bd477cf3c003c5 {
		t.Errorf("phase tree hash %#x, want 0x32bd477cf3c003c5:\n%s", got, data)
	}
}

// TestSteadyStateZeroAllocs asserts the sequential round loop is
// allocation-free once warm: a non-terminating broadcast workload stepped via
// the Execution API must not allocate per round.
func TestSteadyStateZeroAllocs(t *testing.T) {
	g := graph.Grid(16, 16)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	ex := sim.Start(func(v *congest.Vertex) congest.Handler {
		val := int64(v.ID())
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) { v.BroadcastWords(val) },
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				v.BroadcastWords(val)
			},
		}
	})
	defer ex.Close()
	// Warm up so arenas and inboxes reach their steady-state capacity.
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
		t.Errorf("steady-state Step allocates %.1f times per round, want 0", allocs)
	}
}
