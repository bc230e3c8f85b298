package experiments

import (
	"fmt"
	"math"
	"sort"

	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

// LocalBruteForce is the LOCAL-model reference algorithm the paper's
// framework emulates under CONGEST constraints: build a BFS tree from vertex
// 0, convergecast the entire edge list to the root with unbounded messages,
// solve there, and broadcast per-vertex answers back down as (vertex, value)
// lists. It runs in O(diameter) rounds but its messages carry Θ(m) words —
// exactly the unbounded-message behavior that disqualifies the approach from
// CONGEST.
func LocalBruteForce(g *graph.Graph, cfg congest.Config, solve func(*graph.Graph) []int64) ([]int64, congest.Metrics, error) {
	cfg.Model = congest.LOCAL
	n := g.N()
	if n == 0 {
		return nil, congest.Metrics{}, nil
	}
	dist, parent := g.BFS(0)
	depth := 0
	for _, d := range dist {
		if d > depth {
			depth = d
		}
	}
	childCount := make([]int, n)
	for v := 1; v < n; v++ {
		if parent[v] >= 0 && parent[v] != v {
			childCount[parent[v]]++
		}
	}
	type state struct {
		pending int
		edges   []int64 // flattened (u, v) pairs from the subtree
		sentUp  bool
		value   int64
		hasVal  bool
	}
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		s := &state{pending: childCount[v.ID()]}
		// Own edges: report each edge once (lower endpoint owns it).
		g.ForEachNeighbor(v.ID(), func(u, _ int) {
			if v.ID() < u {
				s.edges = append(s.edges, int64(v.ID()), int64(u))
			}
		})
		return congest.RunFuncs{
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				for _, in := range recv {
					if len(in.Msg) == 0 {
						continue
					}
					switch in.Msg[0] {
					case 1: // upward edge list
						s.pending--
						s.edges = append(s.edges, in.Msg[1:]...)
					case 2: // downward (vertex, value) list
						for i := 1; i+1 < len(in.Msg); i += 2 {
							if int(in.Msg[i]) == v.ID() {
								s.value = in.Msg[i+1]
								s.hasVal = true
							}
						}
						// Forward the whole list to children.
						for p := 0; p < v.Degree(); p++ {
							u := v.NeighborID(p)
							if parent[u] == v.ID() && u != v.ID() {
								v.Send(p, append(congest.Message{2}, in.Msg[1:]...))
							}
						}
					}
				}
				if !s.sentUp && s.pending == 0 {
					s.sentUp = true
					if v.ID() == 0 {
						// Root: rebuild the graph, solve, start broadcast.
						sub := rebuildGraph(n, s.edges, g)
						values := solve(sub)
						payload := congest.Message{2}
						for u, val := range values {
							payload = append(payload, int64(u), val)
						}
						s.value = values[0]
						s.hasVal = true
						for p := 0; p < v.Degree(); p++ {
							u := v.NeighborID(p)
							if parent[u] == 0 && u != 0 {
								v.Send(p, payload.Clone())
							}
						}
					} else if parent[v.ID()] >= 0 {
						p := v.PortOf(parent[v.ID()])
						v.Send(p, append(congest.Message{1}, s.edges...))
					}
				}
				if s.hasVal {
					v.SetOutput(s.value)
					v.Halt()
				}
				if round > 4*(depth+2) && parent[v.ID()] == -1 {
					// Unreachable vertex (disconnected graph): no answer.
					v.SetOutput(int64(0))
					v.Halt()
				}
			},
		}
	})
	if err != nil {
		return nil, res.Metrics, err
	}
	out := make([]int64, n)
	for v := 0; v < n; v++ {
		if res.Outputs[v] != nil {
			out[v] = res.Outputs[v].(int64)
		}
	}
	return out, res.Metrics, nil
}

// rebuildGraph reconstructs the graph from flattened edge pairs, preserving
// weights/signs from the reference graph (the root has gathered the full
// topology, so this mirrors what a LOCAL-model root computes on).
func rebuildGraph(n int, flat []int64, ref *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(flat); i += 2 {
		u, v := int(flat[i]), int(flat[i+1])
		switch {
		case ref.Weighted():
			if idx, ok := ref.EdgeIndex(u, v); ok {
				b.AddWeightedEdge(u, v, ref.Weight(idx))
			}
		case ref.Signed():
			if idx, ok := ref.EdgeIndex(u, v); ok {
				b.AddSignedEdge(u, v, ref.Sign(idx))
			}
		default:
			b.AddEdge(u, v)
		}
	}
	return b.Graph()
}

// E12LocalCongestGap compares the LOCAL brute force against the CONGEST
// framework on MaxIS: solution quality must be comparable (both ≥ 1-ε of the
// optimum) while the LOCAL algorithm's messages blow up with n and the
// framework's stay at O(log n) bits.
func E12LocalCongestGap(sizes []int, eps float64, seed int64) Outcome {
	t := &Table{
		ID:    "E12",
		Title: "LOCAL vs CONGEST: same quality, O(log n)-bit messages (the paper's gap)",
		Columns: []string{"n", "local-IS", "congest-IS", "opt", "local-maxwords",
			"congest-maxwords", "local-rounds", "congest-rounds", "ok"},
	}
	allOK := true
	localWordsGrow := []int{}
	for _, n := range sizes {
		side := int(math.Sqrt(float64(n)))
		g := graph.Grid(side, side)
		localVals, localMetrics, err := LocalBruteForce(g, congest.Config{Seed: seed}, func(full *graph.Graph) []int64 {
			var set []int
			if full.N() <= solvers.MaxISExactLimit {
				set = solvers.MaximumIndependentSet(full)
			} else {
				set = solvers.GreedyIndependentSet(full)
			}
			vals := make([]int64, full.N())
			for _, v := range set {
				vals[v] = 1
			}
			return vals
		})
		if err != nil {
			panic(fmt.Sprintf("E12 local: %v", err))
		}
		localIS := 0
		for _, v := range localVals {
			if v == 1 {
				localIS++
			}
		}
		fw, err := maxis.Approximate(g, maxis.Options{Eps: eps, Cfg: congest.Config{Seed: seed}})
		if err != nil {
			panic(fmt.Sprintf("E12 congest: %v", err))
		}
		var opt int
		optExact := g.N() <= solvers.MaxISExactLimit
		if optExact {
			opt = len(solvers.MaximumIndependentSet(g))
		} else {
			opt = len(solvers.GreedyIndependentSet(g))
		}
		cm := fw.Solution.Metrics
		ok := cm.MaxWordsPerMsg <= 8 && localMetrics.MaxWordsPerMsg > 8
		if optExact {
			ok = ok && float64(len(fw.Set)) >= (1-eps)*float64(opt)
		}
		allOK = allOK && ok
		localWordsGrow = append(localWordsGrow, localMetrics.MaxWordsPerMsg)
		t.AddRow(g.N(), localIS, len(fw.Set), opt, localMetrics.MaxWordsPerMsg,
			cm.MaxWordsPerMsg, localMetrics.Rounds, cm.Rounds, ok)
	}
	grows := sort.IntsAreSorted(localWordsGrow) && len(localWordsGrow) > 1 &&
		localWordsGrow[len(localWordsGrow)-1] > localWordsGrow[0]
	return Outcome{
		Table: t,
		Checks: []Check{
			{Name: "CONGEST stays within 8 words; LOCAL exceeds; quality ≥ 1-ε", OK: allOK},
			{Name: "LOCAL max message size grows with n", OK: grows,
				Info: fmt.Sprintf("%v", localWordsGrow)},
		},
	}
}
