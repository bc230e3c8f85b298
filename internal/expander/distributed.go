package expander

import (
	"fmt"
	"math"
	"slices"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// mpxScale is the fixed-point denominator for exponential shifts: values are
// carried in milli-units so each message word stays well inside the CONGEST
// word-size cap.
const mpxScale = 1000

// MPXResult is the outcome of the Miller–Peng–Xu exponential-shift
// clustering.
type MPXResult struct {
	// Assignment maps each vertex to its cluster center's vertex ID.
	Assignment primitives.ClusterAssignment
	// Rounds is the propagation budget used.
	Rounds int
}

type mpxHandler struct {
	bestCenter int64
	bestMilli  int64 // value of the best offer in milli-units
	improved   bool
	budget     int
}

func (h *mpxHandler) Init(v *congest.Vertex) {
	// Draw δ_v ~ Exponential(β) truncated at the deterministic cap; the cap
	// and β arrive via closure-initialized fields (set before Init).
}

// mpxBroadcast floods the (center, int part, frac part) offer to all
// neighbors through the vertex's arena; values travel in milli-units.
func mpxBroadcast(v *congest.Vertex, center int, milli int64) {
	v.BroadcastWords(int64(center), milli/mpxScale, milli%mpxScale)
}

func mpxDecode(m congest.Message) (center int, milli int64) {
	return int(m[0]), m[1]*mpxScale + m[2]
}

func (h *mpxHandler) Round(v *congest.Vertex, round int, recv []congest.Incoming) {
	for _, in := range recv {
		if len(in.Msg) != 3 {
			continue
		}
		center, milli := mpxDecode(in.Msg)
		// The offer costs one hop to reach us.
		milli -= mpxScale
		if milli < 0 {
			continue
		}
		if milli > h.bestMilli || (milli == h.bestMilli && int64(center) > h.bestCenter) {
			h.bestCenter = int64(center)
			h.bestMilli = milli
			h.improved = true
		}
	}
	if h.improved {
		h.improved = false
		mpxBroadcast(v, int(h.bestCenter), h.bestMilli)
	}
	if round >= h.budget {
		v.SetOutput(int(h.bestCenter))
		v.Halt()
	}
}

// MPX runs Miller–Peng–Xu exponential-shift clustering on the CONGEST
// simulator: every vertex draws δ_v ~ Exp(β) (truncated at 4·ln(n+1)/β) and
// joins the center c maximizing δ_c − dist(c, ·), breaking ties toward the
// larger center ID. Each edge is cut with probability O(β), and cluster
// radii are at most max δ = O(log n / β) — the classic low-diameter
// decomposition trade-off this package reuses as the distributed clustering
// stage.
func MPX(g *graph.Graph, cfg congest.Config, beta float64) (MPXResult, congest.Metrics, error) {
	if beta <= 0 || beta >= 1 {
		return MPXResult{}, congest.Metrics{}, fmt.Errorf("expander: beta must be in (0,1), got %v", beta)
	}
	n := g.N()
	if n == 0 {
		return MPXResult{}, congest.Metrics{}, nil
	}
	deltaCap := 4 * math.Log(float64(n)+1) / beta
	budget := int(math.Ceil(deltaCap)) + 2
	cfg.Obs.BeginPhase("mpx")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		// Exponential sample from the vertex's private PRNG.
		delta := v.Rand().ExpFloat64() / beta
		if delta > deltaCap {
			delta = deltaCap
		}
		h := &mpxHandler{
			bestCenter: int64(v.ID()),
			bestMilli:  int64(delta * mpxScale),
			budget:     budget,
		}
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) {
				mpxBroadcast(v, int(h.bestCenter), h.bestMilli)
			},
			RoundFn: h.Round,
		}
	})
	if err != nil {
		return MPXResult{}, res.Metrics, err
	}
	out := MPXResult{
		Assignment: make(primitives.ClusterAssignment, n),
		Rounds:     res.Metrics.Rounds,
	}
	for v := 0; v < n; v++ {
		out.Assignment[v] = res.Outputs[v].(int)
	}
	return out, res.Metrics, nil
}

// DistributedDecompose builds an (ε, φ) expander decomposition with a
// two-stage distributed pipeline, standing in for the Chang–Saranurak
// construction (Theorem 2.1):
//
//  1. MPX exponential-shift clustering with β = ε/4 runs as real message
//     passing and bounds the expected inter-cluster edges by O(β)·|E| while
//     keeping cluster diameters O(log n / β).
//  2. Each MPX cluster is refined into φ-expanders by the recursive
//     sparse-cut decomposer with budget ε/2, modeling the leader-local
//     computation the framework performs after gathering a low-diameter
//     cluster (the gathering cost itself is measured separately by the
//     framework's routing step; see internal/core).
//
// The returned metrics cover stage 1's communication. The final φ is
// PhiTarget(ε/2, |E|).
func DistributedDecompose(g *graph.Graph, cfg congest.Config, eps float64) (*Decomposition, congest.Metrics, error) {
	if eps <= 0 || eps >= 1 {
		return nil, congest.Metrics{}, fmt.Errorf("expander: eps must be in (0,1), got %v", eps)
	}
	mpx, metrics, err := MPX(g, cfg, eps/4)
	if err != nil {
		return nil, metrics, err
	}
	phi := PhiTarget(eps/2, g.M())
	final := &Decomposition{
		Assignment: make(primitives.ClusterAssignment, g.N()),
		Eps:        eps,
		Phi:        phi,
	}
	// Stage 2 is leader-local computation (zero communication rounds); the
	// phase still appears in reports so the two-stage structure is visible.
	cfg.Obs.BeginPhase("refine")
	defer cfg.Obs.EndPhase()
	// The MPX clusters are disjoint pieces of g: one recursion refines them
	// in ascending center order.
	clusters := mpx.Assignment.Clusters()
	centers := make([]int, 0, len(clusters))
	for center := range clusters {
		centers = append(centers, center)
	}
	slices.Sort(centers)
	refine := newDecomposer(g, phi, Options{Phi: phi, Seed: cfg.Seed})
	for _, center := range centers {
		for _, verts := range refine.solve(clusters[center]) {
			final.addCluster(verts)
		}
	}
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if final.Assignment[e.U] != final.Assignment[e.V] {
			final.Removed = append(final.Removed, i)
		}
	}
	return final, metrics, nil
}
