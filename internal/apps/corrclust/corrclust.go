package corrclust

import (
	"fmt"
	"math/rand"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

// Options configures Approximate.
type Options struct {
	// Eps is the approximation parameter.
	Eps float64
	// Cfg is the simulator configuration.
	Cfg congest.Config
	// Core forwards extra framework options.
	Core core.Options
}

// Result is a clustering with its score.
type Result struct {
	// Labels assigns each vertex a cluster label (globally unique across
	// framework clusters).
	Labels []int
	// Score is the agreement objective achieved.
	Score int64
	// Solution carries framework details.
	Solution *core.Solution
}

// Approximate computes a (1-ε)-approximate agreement-maximization
// correlation clustering of a signed H-minor-free network.
func Approximate(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("corrclust: eps must be in (0,1), got %v", opts.Eps)
	}
	if !g.Signed() && g.M() > 0 {
		return nil, fmt.Errorf("corrclust: graph must carry edge signs")
	}
	n := g.N()
	coreOpts := opts.Core
	coreOpts.Eps = opts.Eps / 2 // §3.3: ε' = ε/2
	coreOpts.Cfg = opts.Cfg

	sol, err := core.Run(g, coreOpts, func(cluster *graph.Graph, toOld []int) map[int]int64 {
		rng := rand.New(rand.NewSource(opts.Cfg.Seed + int64(toOld[0])))
		labels := solvers.BestCorrelationClustering(cluster, rng)
		leader := int64(toOld[0]) // any cluster-stable identifier
		out := make(map[int]int64, len(toOld))
		for v, lab := range labels {
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
			// Lost answers fall back to singleton clusters (§2.3 failure
			// semantics); unique negative labels cannot collide.
			res.Labels[v] = -(v + 1)
		}
	}
	res.Score = solvers.CorrelationScore(g, res.Labels)
	return res, nil
}

// GammaLowerBound returns the §3.3 guarantee γ(G) ≥ |E|/2 for connected
// graphs: the better of all-singletons and one-cluster.
func GammaLowerBound(g *graph.Graph) int64 {
	s := solvers.SingletonScore(g)
	if oc := solvers.OneClusterScore(g); oc > s {
		return oc
	}
	return s
}

// DistributedPivot is the baseline: a message-passing version of the pivot
// clustering. Each phase, every unclustered vertex draws a random priority;
// local minima become pivots and claim their unclustered positive neighbors.
func DistributedPivot(g *graph.Graph, cfg congest.Config) ([]int, congest.Metrics, error) {
	type state struct {
		label    int
		priority int64
	}
	cfg.Obs.BeginPhase("pivot")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		s := &state{label: -1}
		signs := make([]int8, v.Degree())
		for p := 0; p < v.Degree(); p++ {
			if idx, ok := g.EdgeIndex(v.ID(), v.NeighborID(p)); ok {
				signs[p] = g.Sign(idx)
			}
		}
		return congest.RunFuncs{
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				switch round % 3 {
				case 1:
					if s.label != -1 {
						v.SetOutput(s.label)
						v.Halt()
						return
					}
					s.priority = int64(v.Rand().Intn(1 << 28))
					v.Broadcast(congest.Message{7, s.priority % (1 << 14), s.priority >> 14})
				case 2:
					if s.label != -1 {
						v.SleepUntil(round + 2)
						return
					}
					minP := true
					for _, in := range recv {
						if len(in.Msg) == 3 && in.Msg[0] == 7 {
							p := in.Msg[1] + in.Msg[2]<<14
							if p < s.priority || (p == s.priority && in.From < v.ID()) {
								minP = false
							}
						}
					}
					if minP {
						s.label = v.ID()
						v.Broadcast(congest.Message{8, int64(v.ID())})
					}
					// Idle until the next draw round (round+2) unless a
					// pivot claim arrives in the claim round and wakes us.
					v.SleepUntil(round + 2)
				case 0:
					if s.label != -1 {
						return
					}
					bestPivot := -1
					for _, in := range recv {
						if len(in.Msg) == 2 && in.Msg[0] == 8 && signs[in.Port] == 1 {
							if int(in.Msg[1]) > bestPivot {
								bestPivot = int(in.Msg[1])
							}
						}
					}
					if bestPivot != -1 {
						s.label = bestPivot
					}
				}
			},
		}
	})
	if err != nil {
		return nil, res.Metrics, err
	}
	labels := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		labels[v] = v
		if l, ok := res.Outputs[v].(int); ok && l >= 0 {
			labels[v] = l
		}
	}
	return labels, res.Metrics, nil
}
