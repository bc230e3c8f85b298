package congest_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
	"expandergap/internal/routing"
)

// starWithTail builds a skewed-load graph: a hub adjacent to every other
// vertex, plus a path threaded through the leaves, so the graph has one
// massively hot vertex (degree n-1, receiving a message from every leaf
// every round) beside a long run of cheap ones.
func starWithTail(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	for v := 1; v < n-1; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Graph()
}

// hubAggregate sends every leaf's running sum to the hub each round while
// the hub broadcasts its own, for five rounds: the hub's pending list holds
// every leaf every round.
func hubAggregate(v *congest.Vertex) congest.Handler {
	sum := int64(0)
	return congest.RunFuncs{
		InitFn: func(v *congest.Vertex) {
			if v.ID() != 0 {
				v.SendWords(0, int64(v.ID())) // port 0 of a leaf is the hub
			}
		},
		RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			for _, in := range recv {
				sum += in.Msg[0]
			}
			if round >= 6 {
				v.SetOutput(sum)
				v.Halt()
				return
			}
			if v.ID() != 0 {
				v.SendWords(0, sum+int64(round))
			} else {
				v.BroadcastWords(sum % 1000)
			}
		},
	}
}

// sleepyBroadcast broadcasts running sums, except that every third vertex
// sleeps on a timer from round 2 to round 8, so faulted delivery, timer
// wakes and the hub's pending list all meet in one run.
func sleepyBroadcast(v *congest.Vertex) congest.Handler {
	sum := int64(0)
	return congest.RunFuncs{
		InitFn: func(v *congest.Vertex) { v.BroadcastWords(int64(v.ID())) },
		RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			for _, in := range recv {
				sum += in.Msg[0]
			}
			switch {
			case round >= 10:
				v.SetOutput(sum)
				v.Halt()
			case v.ID()%3 == 1 && round == 2:
				v.SleepUntil(8)
			default:
				v.BroadcastWords(sum % 997)
			}
		},
	}
}

// faultyBroadcast broadcasts a random value, then running sums for seven
// rounds, and outputs its sum.
func faultyBroadcast(v *congest.Vertex) congest.Handler {
	sum := int64(0)
	return congest.RunFuncs{
		InitFn: func(v *congest.Vertex) {
			v.Broadcast(congest.Message{int64(v.Rand().Intn(1000))})
		},
		RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			for _, in := range recv {
				sum += in.Msg[0]
			}
			if round < 8 {
				v.Broadcast(congest.Message{sum % 1000})
				return
			}
			v.SetOutput(sum)
			v.Halt()
		},
	}
}

// simCase runs newHandler on g under cfg, reporting into obs, and returns
// the outputs to hash.
func simCase(g *graph.Graph, cfg congest.Config, newHandler func(v *congest.Vertex) congest.Handler) func(obs *congest.Observer) (any, congest.Metrics, error) {
	return func(obs *congest.Observer) (any, congest.Metrics, error) {
		cfg.Obs = obs
		res, err := congest.NewSimulator(g, cfg).Run(newHandler)
		return res.Outputs, res.Metrics, err
	}
}

// TestPinnedWorkloads pins the exact Metrics and an FNV-64a hash of the
// printed outputs of fixed-seed workloads that stress the scheduler: timer
// arming and message wakes (the sleepy flood and broadcast), faulted
// delivery, hub-heavy pending lists, and the routing exchange's long fixed
// schedule. The values were captured before Send queued straight onto the
// receivers' pending lists, from a simulator whose sequential and sharded
// executors agreed on every case; the four cases that draw vertex
// randomness were re-pinned once when vertex PRNGs became splitmix64
// streams, and the two faulted cases' hashes once when faultCoin began
// mixing the seed before the coordinates.
//
// Each case then runs again with a tracing Observer, and the FNV-64a hash of
// its JSONL trace is pinned too. Outputs and Metrics cannot tell whether a
// no-op sleeper stepped once too often or once too few; the trace's
// per-round active count can. The trace hashes were captured from the
// scheduler that kept an awake list beside each round's wakes, and those
// of the three randomized cases re-pinned with the streams.
func TestPinnedWorkloads(t *testing.T) {
	grid32 := graph.Grid(32, 32)
	cases := []struct {
		name  string
		run   func(obs *congest.Observer) (any, congest.Metrics, error)
		want  congest.Metrics
		hash  uint64
		trace uint64
	}{
		{"sleepyFlood-grid12x12", simCase(graph.Grid(12, 12), congest.Config{Seed: 17}, sleepyFlood),
			congest.Metrics{Rounds: 29, Messages: 528, Words: 528, MaxWordsPerMsg: 1}, 0xedf8e6eff9b7edc3, 0xe3b4f1f5013a888d},
		{"hubAggregate-star257", simCase(starWithTail(257), congest.Config{Seed: 9}, hubAggregate),
			congest.Metrics{Rounds: 6, Messages: 2816, Words: 2816, MaxWordsPerMsg: 1}, 0x4201447efbef7e7f, 0xc37d1c34db826970},
		{"sleepyBroadcast-star129-faults", simCase(starWithTail(129), congest.Config{Seed: 31, FaultRate: 0.15, MaxRounds: 128}, sleepyBroadcast),
			congest.Metrics{Rounds: 10, Messages: 4972, Words: 4972, MaxWordsPerMsg: 1}, 0x100fcd61e1ade0e2, 0x169dae07ce6e1048},
		{"faultyBroadcast-grid16x16", simCase(graph.Grid(16, 16), congest.Config{Seed: 5, FaultRate: 0.2, MaxRounds: 64}, faultyBroadcast),
			congest.Metrics{Rounds: 8, Messages: 7680, Words: 7680, MaxWordsPerMsg: 1}, 0x172ce11fa810a934, 0xd63c4f2e761f39f8},
		{"luby-grid32x32", func(obs *congest.Observer) (any, congest.Metrics, error) {
			return maxis.LubyMIS(grid32, congest.Config{Seed: 7, Obs: obs})
		}, congest.Metrics{Rounds: 10, Messages: 6492, Words: 16572, MaxWordsPerMsg: 3}, 0x1abdc8fc72a3004b, 0x638c357a3a42730},
		{"exchange-grid32x32", func(obs *congest.Observer) (any, congest.Metrics, error) {
			tokens := make([][]routing.Token, grid32.N())
			for v := range tokens {
				tokens[v] = []routing.Token{{A: int64(v), B: int64(v % 7)}}
			}
			plan := routing.Plan{
				Cluster:       primitives.Uniform(grid32.N()),
				Leader:        make([]int, grid32.N()), // all zero: leader is vertex 0
				ForwardRounds: 3000,
				Strategy:      routing.RandomWalk,
			}
			res, m, err := routing.Exchange(grid32, congest.Config{Seed: 11, Obs: obs}, plan, tokens,
				func(leader int, tok routing.Token) (int64, int64) { return tok.A + 1, tok.B })
			if err != nil {
				return nil, m, err
			}
			// The pinned hash prints the result beside each leader's token
			// load, counted from the responses and the plan's leaders.
			load := make(map[int]int)
			for v, resp := range res.Responses {
				if resp != nil {
					load[plan.Leader[v]] += len(resp)
				}
			}
			return struct {
				Responses              [][]routing.Token
				Delivered, Undelivered int
				LeaderLoad             map[int]int
			}{res.Responses, res.Delivered, res.Undelivered, load}, m, nil
		}, congest.Metrics{Rounds: 6003, Messages: 1432453, Words: 7146393, MaxWordsPerMsg: 5}, 0xcc3be6f5d76c8848, 0xae6923b2a3a52724},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(obs *congest.Observer) {
				t.Helper()
				out, m, err := tc.run(obs)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				fmt.Fprint(h, out)
				if m != tc.want || h.Sum64() != tc.hash {
					t.Errorf("metrics %+v hash %#x, want %+v hash %#x", m, h.Sum64(), tc.want, tc.hash)
				}
			}
			check(nil)
			obs := congest.NewObserver()
			trace := fnv.New64a()
			obs.EnableTrace(trace, 0)
			check(obs)
			if err := obs.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := trace.Sum64(); got != tc.trace {
				t.Errorf("trace hash %#x, want %#x", got, tc.trace)
			}
		})
	}
}
