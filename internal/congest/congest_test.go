package congest

import (
	"errors"
	"slices"
	"testing"

	"expandergap/internal/graph"
)

// floodHandler floods a token from vertex 0 and records the round it was
// first seen — a distributed BFS-distance computation.
type floodHandler struct {
	seenAt int
}

func (h *floodHandler) Init(v *Vertex) {
	h.seenAt = -1
	if v.ID() == 0 {
		h.seenAt = 0
		v.Broadcast(Message{1})
	}
}

func (h *floodHandler) Round(v *Vertex, round int, recv []Incoming) {
	if h.seenAt == -1 {
		for range recv {
			h.seenAt = round
			v.Broadcast(Message{1})
			break
		}
	}
	if h.seenAt != -1 {
		v.SetOutput(h.seenAt)
		v.Halt()
	}
}

func TestFloodComputesBFSDistances(t *testing.T) {
	g := graph.Grid(4, 4)
	sim := NewSimulator(g, Config{Seed: 1})
	res, err := sim.Run(func(v *Vertex) Handler { return &floodHandler{} })
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		got, ok := res.Outputs[v].(int)
		if !ok {
			t.Fatalf("vertex %d produced no output", v)
		}
		if got != dist[v] {
			t.Errorf("vertex %d: flood round %d, BFS distance %d", v, got, dist[v])
		}
	}
	if res.Metrics.Rounds < dist[15] {
		t.Errorf("rounds %d below eccentricity %d", res.Metrics.Rounds, dist[15])
	}
}

func TestVertexPortsSortedAndPortOf(t *testing.T) {
	g := graph.Star(4)
	sim := NewSimulator(g, Config{Seed: 1})
	_, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{InitFn: func(v *Vertex) {
			if v.ID() == 0 {
				if v.Degree() != 4 {
					t.Errorf("center degree = %d", v.Degree())
				}
				for p := 0; p < v.Degree(); p++ {
					if v.NeighborID(p) != p+1 {
						t.Errorf("port %d -> %d, want %d", p, v.NeighborID(p), p+1)
					}
					if v.PortOf(p+1) != p {
						t.Errorf("PortOf(%d) = %d, want %d", p+1, v.PortOf(p+1), p)
					}
				}
				if v.PortOf(0) != -1 || v.PortOf(99) != -1 {
					t.Error("PortOf non-neighbor should be -1")
				}
			}
			v.Halt()
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCongestRejectsOversizedMessage(t *testing.T) {
	g := graph.Path(2)
	sim := NewSimulator(g, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("oversized message should panic in CONGEST mode")
		}
	}()
	sim.Run(func(v *Vertex) Handler {
		return RunFuncs{InitFn: func(v *Vertex) {
			if v.ID() == 0 {
				v.Send(0, make(Message, MaxWords+1))
			}
			v.Halt()
		}}
	})
}

func TestCongestRejectsHugeWord(t *testing.T) {
	g := graph.Path(2)
	sim := NewSimulator(g, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("huge word should panic in CONGEST mode")
		}
	}()
	sim.Run(func(v *Vertex) Handler {
		return RunFuncs{InitFn: func(v *Vertex) {
			if v.ID() == 0 {
				v.Send(0, Message{1 << 40})
			}
			v.Halt()
		}}
	})
}

func TestLocalAllowsUnboundedMessages(t *testing.T) {
	g := graph.Path(2)
	sim := NewSimulator(g, Config{Seed: 1, Model: LOCAL})
	big := make(Message, 10000)
	res, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{InitFn: func(v *Vertex) {
			if v.ID() == 0 {
				v.Send(0, big)
			}
			v.Halt()
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxWordsPerMsg != 10000 {
		t.Errorf("MaxWordsPerMsg = %d, want 10000", res.Metrics.MaxWordsPerMsg)
	}
}

func TestDoubleSendPanics(t *testing.T) {
	g := graph.Path(2)
	sim := NewSimulator(g, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("double send should panic")
		}
	}()
	sim.Run(func(v *Vertex) Handler {
		return RunFuncs{InitFn: func(v *Vertex) {
			if v.ID() == 0 {
				v.Send(0, Message{1})
				v.Send(0, Message{2})
			}
			v.Halt()
		}}
	})
}

func TestInvalidPortPanics(t *testing.T) {
	g := graph.Path(2)
	sim := NewSimulator(g, Config{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("invalid port should panic")
		}
	}()
	sim.Run(func(v *Vertex) Handler {
		return RunFuncs{InitFn: func(v *Vertex) {
			v.Send(5, Message{1})
		}}
	})
}

func TestMaxRounds(t *testing.T) {
	g := graph.Path(3)
	sim := NewSimulator(g, Config{Seed: 1, MaxRounds: 5})
	_, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{RoundFn: func(v *Vertex, round int, recv []Incoming) {
			// Never halts.
		}}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Errorf("err = %v, want ErrMaxRounds", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.Grid(3, 3)
	run := func() []any {
		sim := NewSimulator(g, Config{Seed: 42})
		res, err := sim.Run(func(v *Vertex) Handler {
			return RunFuncs{
				InitFn: func(v *Vertex) {
					v.Broadcast(Message{int64(v.Rand().Intn(1000))})
				},
				RoundFn: func(v *Vertex, round int, recv []Incoming) {
					sum := int64(0)
					for _, in := range recv {
						sum += in.Msg[0]
					}
					v.SetOutput(sum)
					v.Halt()
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at vertex %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Vertex v draws from the splitmix64 stream that starts at a hash of
// (Seed, v): the first draws of two streams are pinned (the values a
// reference splitmix64 gives from those states), and a second Run on one
// Simulator reseeds every vertex, so it repeats the first draw for draw even
// though the first run left its streams part consumed.
func TestVertexStreams(t *testing.T) {
	g := graph.Path(6)
	draws := func(sim *Simulator) [][3]uint64 {
		res, err := sim.Run(func(v *Vertex) Handler {
			return RunFuncs{InitFn: func(v *Vertex) {
				r := v.Rand()
				v.SetOutput([3]uint64{r.Uint64(), r.Uint64(), uint64(r.Int63())})
				v.Halt()
			}}
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][3]uint64, g.N())
		for id, o := range res.Outputs {
			out[id] = o.([3]uint64)
		}
		return out
	}
	for _, pin := range []struct {
		seed int64
		id   int
		want [3]uint64
	}{
		{1, 0, [3]uint64{0xfc042709560421da, 0x493384625f4330a7, 0x4897323ab2576c33}},
		{7, 5, [3]uint64{0x3e333274c561f374, 0x7de164ab84b1bce4, 0x4bfbc069e7e9774b}},
	} {
		sim := NewSimulator(g, Config{Seed: pin.seed})
		first := draws(sim)
		if got := first[pin.id]; got != pin.want {
			t.Errorf("seed %d, vertex %d: first draws %#x, want %#x", pin.seed, pin.id, got, pin.want)
		}
		if second := draws(sim); !slices.Equal(second, first) {
			t.Errorf("seed %d: a second Run drew %#x, the first %#x", pin.seed, second, first)
		}
	}
}

func TestSeedChangesRandomness(t *testing.T) {
	g := graph.Path(2)
	out := func(seed int64) int64 {
		sim := NewSimulator(g, Config{Seed: seed})
		res, err := sim.Run(func(v *Vertex) Handler {
			return RunFuncs{InitFn: func(v *Vertex) {
				v.SetOutput(v.Rand().Int63())
				v.Halt()
			}}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs[0].(int64)
	}
	if out(1) == out(2) {
		t.Error("different seeds should give different vertex randomness")
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := graph.Path(3) // edges: 0-1, 1-2
	sim := NewSimulator(g, Config{Seed: 1})
	res, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{
			InitFn: func(v *Vertex) {
				v.Broadcast(Message{int64(v.ID()), 7})
			},
			RoundFn: func(v *Vertex, round int, recv []Incoming) {
				v.Halt()
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 sends 1 msg, vertex 1 sends 2, vertex 2 sends 1: 4 messages,
	// 8 words.
	if res.Metrics.Messages != 4 {
		t.Errorf("Messages = %d, want 4", res.Metrics.Messages)
	}
	if res.Metrics.Words != 8 {
		t.Errorf("Words = %d, want 8", res.Metrics.Words)
	}
	if res.Metrics.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Metrics.Rounds)
	}
	if bits := res.Metrics.TotalBits(3); bits != 8*int64(BitsPerWord(3)) {
		t.Errorf("TotalBits = %d", bits)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Rounds: 2, Messages: 3, Words: 4, MaxWordsPerMsg: 2}
	b := Metrics{Rounds: 5, Messages: 7, Words: 11, MaxWordsPerMsg: 6}
	a.Add(b)
	if a.Rounds != 7 || a.Messages != 10 || a.Words != 15 || a.MaxWordsPerMsg != 6 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestBitsPerWord(t *testing.T) {
	// The documented contract is ⌈log₂(max(n,2))⌉ exactly.
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, tc := range cases {
		if got := BitsPerWord(tc.n); got != tc.want {
			t.Errorf("BitsPerWord(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestEmptyMessageDelivered(t *testing.T) {
	g := graph.Path(2)
	sim := NewSimulator(g, Config{Seed: 1})
	res, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{
			InitFn: func(v *Vertex) {
				if v.ID() == 0 {
					v.Send(0, Message{})
				}
			},
			RoundFn: func(v *Vertex, round int, recv []Incoming) {
				if v.ID() == 1 {
					v.SetOutput(len(recv))
				}
				v.Halt()
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[1].(int); got != 1 {
		t.Errorf("empty message not delivered: recv count = %d", got)
	}
}

func TestHaltedVertexStopsReceivingRounds(t *testing.T) {
	g := graph.Path(2)
	calls := make([]int, 2)
	sim := NewSimulator(g, Config{Seed: 1, MaxRounds: 100})
	_, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{RoundFn: func(v *Vertex, round int, recv []Incoming) {
			calls[v.ID()]++
			if v.ID() == 0 || round == 3 {
				v.Halt()
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls[0] != 1 {
		t.Errorf("halted vertex got %d round calls, want 1", calls[0])
	}
	if calls[1] != 3 {
		t.Errorf("vertex 1 got %d round calls, want 3", calls[1])
	}
}

func TestModelString(t *testing.T) {
	if CONGEST.String() != "CONGEST" || LOCAL.String() != "LOCAL" {
		t.Error("Model.String wrong")
	}
	if Model(9).String() != "Model(9)" {
		t.Error("unknown model string wrong")
	}
}

func TestQuickGridFloodMatchesBFSSizes(t *testing.T) {
	// Run the flood on several graph families and verify termination and
	// message-count sanity: each vertex broadcasts exactly once.
	for _, g := range []*graph.Graph{
		graph.Cycle(10),
		graph.Complete(8),
		graph.BalancedBinaryTree(15),
	} {
		sim := NewSimulator(g, Config{Seed: 3})
		res, err := sim.Run(func(v *Vertex) Handler { return &floodHandler{} })
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if res.Metrics.Messages != int64(2*g.M()) {
			t.Errorf("%v: messages = %d, want %d (one broadcast per vertex)",
				g, res.Metrics.Messages, 2*g.M())
		}
	}
}
