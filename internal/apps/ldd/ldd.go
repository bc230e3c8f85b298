package ldd

import (
	"fmt"
	"math/rand"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

// Options configures Decompose.
type Options struct {
	// Eps is the edge-cut budget ε.
	Eps float64
	// Cfg is the simulator configuration.
	Cfg congest.Config
	// Core forwards extra framework options.
	Core core.Options
	// Levels is the KPR chopping depth used in the per-cluster refinement
	// (default 3, the planar setting).
	Levels int
}

// Result is a low-diameter decomposition of the network.
type Result struct {
	// Labels assigns each vertex a cluster label.
	Labels []int
	// CutEdges counts inter-cluster edges.
	CutEdges int
	// CutFraction is CutEdges/|E|.
	CutFraction float64
	// CutWeightFraction is the weight of inter-cluster edges over the total
	// edge weight — the guarantee of the weighted low-diameter
	// decomposition of Czygrinow–Hańćkowiak–Wawrzyniak that §1.1 discusses.
	// For unweighted graphs it equals CutFraction.
	CutWeightFraction float64
	// MaxDiameter is the largest induced-cluster diameter.
	MaxDiameter int
	// Solution carries framework details (nil for baselines).
	Solution *core.Solution
}

// Decompose computes the Theorem 1.5 low-diameter decomposition.
func Decompose(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("ldd: eps must be in (0,1), got %v", opts.Eps)
	}
	levels := opts.Levels
	if levels == 0 {
		levels = 3
	}
	n := g.N()
	coreOpts := opts.Core
	coreOpts.Eps = opts.Eps / 2
	coreOpts.Cfg = opts.Cfg
	sol, err := core.Run(g, coreOpts, func(cluster *graph.Graph, toOld []int) map[int]int64 {
		rng := rand.New(rand.NewSource(opts.Cfg.Seed + int64(toOld[0]) + 1))
		ref := solvers.LowDiameterDecomposition(cluster, opts.Eps/2, levels, rng)
		leader := int64(toOld[0])
		out := make(map[int]int64, len(toOld))
		for v, lab := range ref.Labels {
			out[toOld[v]] = leader*int64(n) + int64(lab)
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Labels: make([]int, n), Solution: sol}
	for v := 0; v < n; v++ {
		res.Labels[v] = int(sol.Values[v])
		if sol.Undelivered[v] {
			// A vertex whose answer was lost falls back to a singleton
			// cluster (unique negative label), the §2.3 failure semantics.
			res.Labels[v] = -(v + 1)
		}
	}
	fill(g, res)
	return res, nil
}

// Baseline runs the MPX exponential-shift clustering with β = ε as the
// D = O(log n/ε) comparison point.
func Baseline(g *graph.Graph, eps float64, cfg congest.Config) (*Result, congest.Metrics, error) {
	mpx, metrics, err := expander.MPX(g, cfg, eps)
	if err != nil {
		return nil, metrics, err
	}
	res := &Result{Labels: make([]int, g.N())}
	copy(res.Labels, mpx.Assignment)
	fill(g, res)
	return res, metrics, nil
}

// fill computes cut statistics and the max cluster diameter.
func fill(g *graph.Graph, res *Result) {
	var cutWeight int64
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if res.Labels[e.U] != res.Labels[e.V] {
			res.CutEdges++
			cutWeight += g.Weight(i)
		}
	}
	if g.M() > 0 {
		res.CutFraction = float64(res.CutEdges) / float64(g.M())
		res.CutWeightFraction = float64(cutWeight) / float64(g.TotalWeight())
	}
	groups := make(map[int][]int)
	for v, l := range res.Labels {
		groups[l] = append(groups[l], v)
	}
	for _, members := range groups {
		sub := g.Induce(members)
		if d := sub.Diameter(); d > res.MaxDiameter {
			res.MaxDiameter = d
		}
	}
}
