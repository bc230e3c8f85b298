package maxis

import (
	"fmt"

	"expandergap/internal/core"
	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

// WeightedResult is the outcome of the weighted framework MaxIS.
type WeightedResult struct {
	// Set is the independent set found.
	Set []int
	// InSet flags membership per vertex.
	InSet []bool
	// Weight is the total vertex weight of the set.
	Weight int64
	// Dropped counts conflict resolutions.
	Dropped int
	// Solution carries the framework run details and metrics.
	Solution *core.Solution
}

// ApproximateWeighted computes a (1-ε)-approximate maximum-weight
// independent set of an H-minor-free network — the weighted extension of
// §3.1 the paper discusses alongside [10, 66]. Vertex weights travel to the
// cluster leaders inside the hello tokens; leaders solve the weighted
// problem exactly (greedy by weight-to-degree ratio above the exact solver's
// limit), and inter-cluster conflicts drop the lighter endpoint.
func ApproximateWeighted(g *graph.Graph, weights []int64, opts Options) (*WeightedResult, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("maxis: eps must be in (0,1), got %v", opts.Eps)
	}
	if len(weights) != g.N() {
		return nil, fmt.Errorf("maxis: %d weights for %d vertices", len(weights), g.N())
	}
	for v, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("maxis: negative weight %d on vertex %d", w, v)
		}
	}
	coreOpts := opts.Core
	coreOpts.Eps = opts.Eps / (2*core.PlanarDensity + 1) // §3.1: ε' = ε/(2d+1)
	coreOpts.Cfg = opts.Cfg
	coreOpts.VertexPayload = weights

	sol, err := core.RunWithPayload(g, coreOpts, func(cluster *graph.Graph, toOld []int, payload map[int]int64) map[int]int64 {
		w := make([]int64, cluster.N())
		for local, orig := range toOld {
			w[local] = payload[orig]
		}
		var set []int
		if cluster.N() <= solvers.WeightedMaxISLimit {
			set = solvers.MaximumWeightIndependentSet(cluster, w)
		} else {
			set = greedyWeighted(cluster, w)
		}
		out := make(map[int]int64, len(toOld))
		for _, v := range set {
			out[toOld[v]] = 1
		}
		return out
	})
	if err != nil {
		return nil, err
	}

	res := &WeightedResult{InSet: make([]bool, g.N()), Solution: sol}
	for v := 0; v < g.N(); v++ {
		res.InSet[v] = sol.Values[v] == 1
	}
	// Conflict resolution: on a conflicting inter-cluster edge, the lighter
	// endpoint (ties by smaller ID) leaves.
	dropped := 0
	for _, e := range g.Edges() {
		if res.InSet[e.U] && res.InSet[e.V] {
			drop := e.U
			if weights[e.U] > weights[e.V] || (weights[e.U] == weights[e.V] && e.U > e.V) {
				drop = e.V
			}
			if res.InSet[drop] {
				res.InSet[drop] = false
				dropped++
			}
		}
	}
	res.Dropped = dropped
	for v := 0; v < g.N(); v++ {
		if res.InSet[v] {
			res.Set = append(res.Set, v)
			res.Weight += weights[v]
		}
	}
	return res, nil
}

// greedyWeighted is the weight-to-degree-ratio greedy: repeatedly take the
// alive vertex maximizing w(v)/(deg(v)+1) and delete its closed
// neighborhood. It inherits the (1/(2d+1))-style guarantee on bounded-
// density graphs.
func greedyWeighted(g *graph.Graph, w []int64) []int {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
	}
	remaining := n
	var out []int
	for remaining > 0 {
		pick := -1
		var bestScore float64 = -1
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			score := float64(w[v]) / float64(deg[v]+1)
			if score > bestScore {
				pick, bestScore = v, score
			}
		}
		out = append(out, pick)
		kill := []int{pick}
		g.ForEachNeighbor(pick, func(u, _ int) {
			if alive[u] {
				kill = append(kill, u)
			}
		})
		for _, v := range kill {
			alive[v] = false
			remaining--
			g.ForEachNeighbor(v, func(u, _ int) {
				if alive[u] {
					deg[u]--
				}
			})
		}
	}
	return out
}
