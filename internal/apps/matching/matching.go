package matching

import (
	"fmt"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

// Options configures the framework matchers.
type Options struct {
	// Eps is the approximation parameter.
	Eps float64
	// Cfg is the simulator configuration.
	Cfg congest.Config
	// Core forwards extra framework options.
	Core core.Options
}

// Result is a matching produced by a distributed algorithm.
type Result struct {
	// Mate[v] is v's partner or -1. Indices refer to the input graph.
	Mate []int
	// Eliminated flags vertices removed by star elimination (MCM only).
	Eliminated []bool
	// Solution carries framework details (nil for baselines).
	Solution *core.Solution
	// EliminationMetrics covers the star-elimination phase.
	EliminationMetrics congest.Metrics
}

// Size returns the number of matched pairs.
func (r *Result) Size() int { return solvers.MatchingSize(r.Mate) }

// Weight returns the matching weight in g.
func (r *Result) Weight(g *graph.Graph) int64 { return solvers.MatchingWeight(g, r.Mate) }

// EliminateStars runs the §3.2 preprocessing as message passing and returns
// the per-vertex removal flags. 2-star elimination: every degree-1 vertex
// sends a token to its neighbor, which keeps one and bounces the rest;
// bounced vertices are removed. 3-double-star elimination: every degree-2
// vertex sends its neighbor pair to the smaller neighbor, which keeps two
// per pair and bounces the rest.
func EliminateStars(g *graph.Graph, cfg congest.Config) ([]bool, congest.Metrics, error) {
	cfg.Obs.BeginPhase("star-elimination")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		removed := false
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) {
				// Round 1 payloads: degree-1 vertices announce (kind 1);
				// degree-2 vertices send (kind 2, other neighbor) to their
				// smaller neighbor.
				switch v.Degree() {
				case 1:
					v.Send(0, congest.Message{1})
				case 2:
					a, b := v.NeighborID(0), v.NeighborID(1)
					lo, other := 0, b
					if b < a {
						lo, other = 1, a
					}
					v.Send(lo, congest.Message{2, int64(other)})
				}
				// Round 1 is pure token aggregation: only vertices that
				// receive a token act (the message wakes them); everyone
				// else skips straight to the output round.
				v.SleepUntil(2)
			},
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				switch round {
				case 1:
					// Aggregate: keep one leaf token; keep two double-star
					// tokens per (self, other) pair; bounce the rest.
					leafKept := false
					pairKept := make(map[int]int)
					for _, in := range recv {
						switch {
						case len(in.Msg) == 1 && in.Msg[0] == 1:
							if leafKept {
								v.Send(in.Port, congest.Message{9}) // bounce
							} else {
								leafKept = true
							}
						case len(in.Msg) == 2 && in.Msg[0] == 2:
							other := int(in.Msg[1])
							if pairKept[other] >= 2 {
								v.Send(in.Port, congest.Message{9})
							} else {
								pairKept[other]++
							}
						}
					}
				case 2:
					for _, in := range recv {
						if len(in.Msg) == 1 && in.Msg[0] == 9 {
							removed = true
						}
					}
					v.SetOutput(removed)
					v.Halt()
				}
			},
		}
	})
	if err != nil {
		return nil, res.Metrics, err
	}
	removed := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if r, ok := res.Outputs[v].(bool); ok {
			removed[v] = r
		}
	}
	return removed, res.Metrics, nil
}

// ApproximateMCM computes a (1-ε)-approximate maximum cardinality matching
// of a planar network per Theorem 3.2.
func ApproximateMCM(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("matching: eps must be in (0,1), got %v", opts.Eps)
	}
	removed, elimMetrics, err := EliminateStars(g, opts.Cfg)
	if err != nil {
		return nil, err
	}
	// Build Ḡ: the graph with eliminated vertices isolated (we keep vertex
	// IDs stable and simply drop their edges; isolated vertices become
	// singleton clusters and stay unmatched, which is what removal means).
	bld := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if !removed[e.U] && !removed[e.V] {
			bld.AddEdge(e.U, e.V)
		}
	}
	gBar := bld.Graph()

	// Lemma 3.1 gives OPT(Ḡ) ≥ c·|V̄| with c about 1/10 for planar graphs;
	// §3.2 sets ε' = c·ε.
	const lemmaConstant = 0.1
	epsPrime := lemmaConstant * opts.Eps
	coreOpts := opts.Core
	coreOpts.Eps = epsPrime
	coreOpts.Cfg = opts.Cfg

	sol, err := core.Run(gBar, coreOpts, matchSolver)
	if err != nil {
		return nil, err
	}
	return assembleResult(g, sol, removed, elimMetrics)
}

// ApproximateMWM computes an approximate maximum weight matching of an
// H-minor-free network (Theorem 1.1's statement; see the package comment
// for the substitution).
func ApproximateMWM(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("matching: eps must be in (0,1), got %v", opts.Eps)
	}
	coreOpts := opts.Core
	coreOpts.Eps = opts.Eps
	coreOpts.Cfg = opts.Cfg
	sol, err := core.Run(g, coreOpts, matchSolver)
	if err != nil {
		return nil, err
	}
	return assembleResult(g, sol, make([]bool, g.N()), congest.Metrics{})
}

// matchSolver is the leader-local matching: exact weighted blossom (or
// branch and bound for tiny instances) on weighted graphs up to the blossom
// size limit, Edmonds' blossom for unweighted graphs, and the scaling
// approximation only beyond the exact solvers' reach. The answer word per
// vertex is the partner's network ID plus one, or 0 for unmatched (so the
// framework's zero default means "unmatched").
func matchSolver(cluster *graph.Graph, toOld []int) map[int]int64 {
	var mate []int
	switch {
	case cluster.Weighted() && cluster.N() <= solvers.WeightedBlossomLimit:
		mate = solvers.ExactMWM(cluster)
	case cluster.Weighted():
		mate = solvers.ScalingMWM(cluster, 0.05)
	default:
		mate = solvers.MaximumMatching(cluster)
	}
	out := make(map[int]int64, len(toOld))
	for v, m := range mate {
		if m == -1 {
			out[toOld[v]] = 0
		} else {
			out[toOld[v]] = int64(toOld[m]) + 1
		}
	}
	return out
}

func assembleResult(g *graph.Graph, sol *core.Solution, removed []bool, elim congest.Metrics) (*Result, error) {
	res := &Result{
		Mate:               make([]int, g.N()),
		Eliminated:         removed,
		Solution:           sol,
		EliminationMetrics: elim,
	}
	sol.Metrics.Add(elim)
	for v := range res.Mate {
		res.Mate[v] = int(sol.Values[v]) - 1
	}
	// Enforce symmetry defensively: drop any half-matched pair.
	for v := range res.Mate {
		m := res.Mate[v]
		if m >= 0 && (m >= g.N() || res.Mate[m] != v) {
			res.Mate[v] = -1
		}
	}
	if !solvers.IsMatching(g, res.Mate) {
		return nil, fmt.Errorf("matching: assembled mate slice is not a matching")
	}
	return res, nil
}

// DistributedGreedy is the ½-approximation baseline: repeated propose-accept
// phases as message passing. In each phase every unmatched vertex proposes
// to its heaviest live neighbor (each endpoint of an edge knows the edge's
// weight locally, per the model); mutual proposals marry; matched vertices
// announce and retire. Every phase either matches the heaviest live edge's
// endpoints or retires vertices, so the protocol terminates with a maximal
// matching whose weight is at least half the optimum.
func DistributedGreedy(g *graph.Graph, cfg congest.Config) (*Result, congest.Metrics, error) {
	type state struct {
		mate      int
		dead      map[int]bool // ports to neighbors known matched/retired
		proposeTo int
		bestPort  int
		weights   []int64 // per-port edge weights (local knowledge)
	}
	cfg.Obs.BeginPhase("greedy-matching")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		s := &state{mate: -1, dead: make(map[int]bool), proposeTo: -1}
		s.weights = make([]int64, v.Degree())
		for p := 0; p < v.Degree(); p++ {
			if idx, ok := g.EdgeIndex(v.ID(), v.NeighborID(p)); ok {
				s.weights[p] = g.Weight(idx)
			}
		}
		return congest.RunFuncs{
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				// Phase structure (3 rounds): propose, accept, confirm.
				// Each phase every live vertex is a proposer with
				// probability 1/2 (Israeli–Itai-style symmetry breaking):
				// proposers offer their heaviest live edge, acceptors take
				// their heaviest incoming proposal, so adjacent
				// proposer/acceptor pairs make progress in expectation.
				switch round % 3 {
				case 1:
					// Process retirement announcements from last phase.
					for _, in := range recv {
						if len(in.Msg) == 1 && in.Msg[0] == 5 {
							s.dead[in.Port] = true
						}
					}
					if s.mate != -1 {
						v.SetOutput(s.mate)
						v.Halt()
						return
					}
					// Heaviest (then largest-ID) live neighbor.
					best, bestID, bestW := -1, -1, int64(-1)
					for p := 0; p < v.Degree(); p++ {
						if s.dead[p] {
							continue
						}
						bw := s.weights[p]
						if bw > bestW || (bw == bestW && v.NeighborID(p) > bestID) {
							best, bestID, bestW = p, v.NeighborID(p), bw
						}
					}
					if best == -1 {
						v.SetOutput(-1)
						v.Halt()
						return
					}
					s.proposeTo = -1
					s.bestPort = best
					if v.Rand().Intn(2) == 0 {
						// Acceptor: idle until a proposal wakes it in the
						// accept round or the next propose round's draw.
						v.SleepUntil(round + 3)
						return
					}
					s.proposeTo = best
					v.Send(best, congest.Message{4})
					// Proposers ignore the accept round unless a neighbor's
					// proposal wakes them (a no-op); the confirm round needs
					// them only if an acceptance arrives, which wakes them.
					v.SleepUntil(round + 3)
				case 2:
					if s.proposeTo != -1 {
						// Woken by a neighbor's proposal: still just waiting
						// for the confirm round.
						v.SleepUntil(round + 2)
						return
					}
					// Accept only a proposal arriving on the locally
					// heaviest live edge (Preis-style): this preserves the
					// ½-approximation for weights, because a matched edge is
					// always locally heaviest for at least one endpoint.
					for _, in := range recv {
						if len(in.Msg) == 1 && in.Msg[0] == 4 && in.Port == s.bestPort {
							s.mate = v.NeighborID(in.Port)
							v.Send(in.Port, congest.Message{6})
							break
						}
					}
					if s.mate == -1 {
						// Nothing accepted: the confirm round is a no-op for
						// this vertex; sleep to the next propose round. A
						// vertex that accepted stays awake to broadcast its
						// retirement in the confirm round.
						v.SleepUntil(round + 2)
					}
				case 0:
					for _, in := range recv {
						if len(in.Msg) == 1 && in.Msg[0] == 6 && in.Port == s.proposeTo {
							s.mate = v.NeighborID(in.Port)
						}
					}
					if s.mate != -1 {
						v.Broadcast(congest.Message{5})
					}
				}
			},
		}
	})
	if err != nil {
		return nil, res.Metrics, err
	}
	out := &Result{Mate: make([]int, g.N())}
	for v := 0; v < g.N(); v++ {
		out.Mate[v] = -1
		if m, ok := res.Outputs[v].(int); ok {
			out.Mate[v] = m
		}
	}
	// Defensive symmetry enforcement.
	for v, m := range out.Mate {
		if m >= 0 && (m >= g.N() || out.Mate[m] != v) {
			out.Mate[v] = -1
		}
	}
	if !solvers.IsMatching(g, out.Mate) {
		return nil, res.Metrics, fmt.Errorf("matching: greedy produced an inconsistent matching")
	}
	return out, res.Metrics, nil
}
