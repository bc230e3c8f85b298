package maxis

import (
	"fmt"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

// Result is the outcome of the framework MaxIS algorithm.
type Result struct {
	// Set is the independent set found.
	Set []int
	// InSet flags membership per vertex.
	InSet []bool
	// Dropped counts conflict resolutions (the paper's |Z|).
	Dropped int
	// Solution carries the framework run details and metrics.
	Solution *core.Solution
}

// Options configures Approximate.
type Options struct {
	// Eps is the approximation parameter.
	Eps float64
	// Cfg is the simulator configuration.
	Cfg congest.Config
	// Core forwards extra framework options.
	Core core.Options
}

// Approximate computes a (1-ε)-approximate maximum independent set of an
// H-minor-free network.
func Approximate(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("maxis: eps must be in (0,1), got %v", opts.Eps)
	}
	coreOpts := opts.Core
	coreOpts.Eps = opts.Eps / (2*core.PlanarDensity + 1) // §3.1: ε' = ε/(2d+1)
	coreOpts.Cfg = opts.Cfg

	sol, err := core.Run(g, coreOpts, func(cluster *graph.Graph, toOld []int) map[int]int64 {
		var set []int
		if cluster.N() <= solvers.MaxISExactLimit {
			set = solvers.MaximumIndependentSet(cluster)
		} else {
			set = solvers.GreedyIndependentSet(cluster)
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

	res := &Result{InSet: make([]bool, g.N()), Solution: sol}
	for v := 0; v < g.N(); v++ {
		res.InSet[v] = sol.Values[v] == 1
	}
	// Conflict resolution on inter-cluster edges: one message round where
	// members announce membership; on a conflicting edge the larger-ID
	// endpoint survives (deterministic local rule; this is the set Z).
	conflicts, m, err := resolveConflicts(g, opts.Cfg, res.InSet)
	if err != nil {
		return nil, err
	}
	sol.Metrics.Add(m)
	sol.Phases["conflict-resolution"] = m.Rounds
	res.Dropped = conflicts
	for v := 0; v < g.N(); v++ {
		if res.InSet[v] {
			res.Set = append(res.Set, v)
		}
	}
	return res, nil
}

// resolveConflicts runs one announcement round: every member broadcasts its
// membership; a member adjacent to a higher-ID member leaves the set.
// Returns the number of dropped vertices. Mutates inSet.
func resolveConflicts(g *graph.Graph, cfg congest.Config, inSet []bool) (int, congest.Metrics, error) {
	cfg.Obs.BeginPhase("conflict-resolution")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) {
				if inSet[v.ID()] {
					v.Broadcast(congest.Message{1})
				}
			},
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				if inSet[v.ID()] {
					drop := false
					for _, in := range recv {
						if len(in.Msg) == 1 && in.Msg[0] == 1 && in.From > v.ID() {
							drop = true
						}
					}
					v.SetOutput(drop)
				}
				v.Halt()
			},
		}
	})
	if err != nil {
		return 0, res.Metrics, err
	}
	dropped := 0
	for v := 0; v < g.N(); v++ {
		if d, ok := res.Outputs[v].(bool); ok && d {
			inSet[v] = false
			dropped++
		}
	}
	return dropped, res.Metrics, nil
}

// LubyMIS computes a maximal independent set with Luby's randomized
// algorithm as genuine message passing: in each phase every active vertex
// draws a random priority; local maxima join the MIS and deactivate their
// neighbors. A maximal independent set is the classic (1/Δ)-approximation
// baseline for MaxIS in CONGEST.
func LubyMIS(g *graph.Graph, cfg congest.Config) ([]int, congest.Metrics, error) {
	type state struct {
		active   bool
		inMIS    bool
		priority int64
	}
	cfg.Obs.BeginPhase("luby")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		s := &state{active: true}
		return congest.RunFuncs{
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				// Three-round phases:
				//   r%3==1: actives draw and broadcast priorities.
				//   r%3==2: local maxima join MIS, announce.
				//   r%3==0: neighbors of new MIS vertices deactivate,
				//           announce their own deactivation.
				switch round % 3 {
				case 1:
					if !s.active {
						v.Halt()
						v.SetOutput(s.inMIS)
						return
					}
					s.priority = int64(v.Rand().Intn(1 << 30))
					v.Broadcast(congest.Message{2, s.priority % (1 << 15), s.priority >> 15})
				case 2:
					if !s.active {
						v.SleepUntil(round + 2)
						return
					}
					win := true
					for _, in := range recv {
						if len(in.Msg) == 3 && in.Msg[0] == 2 {
							p := in.Msg[1] + in.Msg[2]<<15
							if p > s.priority || (p == s.priority && in.From > v.ID()) {
								win = false
							}
						}
					}
					if win {
						s.inMIS = true
						s.active = false
						v.Broadcast(congest.Message{3})
					}
					// Nothing to do until the next draw round (round+2,
					// where winners halt and survivors redraw) unless a
					// neighbor's MIS announcement arrives in the
					// deactivation round — the message wakes us for it.
					v.SleepUntil(round + 2)
				case 0:
					if s.active {
						for _, in := range recv {
							if len(in.Msg) == 1 && in.Msg[0] == 3 {
								s.active = false
							}
						}
					}
				}
			},
		}
	})
	if err != nil {
		return nil, res.Metrics, err
	}
	var set []int
	for v := 0; v < g.N(); v++ {
		if in, ok := res.Outputs[v].(bool); ok && in {
			set = append(set, v)
		}
	}
	return set, res.Metrics, nil
}

// Ratio returns |set| / |optimum| where the optimum is computed exactly for
// small graphs and lower-bounded by the greedy guarantee otherwise. The
// boolean reports whether the denominator was exact.
func Ratio(g *graph.Graph, set []int) (float64, bool) {
	if g.N() == 0 {
		return 1, true
	}
	if g.N() <= solvers.MaxISExactLimit {
		opt := solvers.MaximumIndependentSet(g)
		return float64(len(set)) / float64(len(opt)), true
	}
	lower := solvers.GreedyIndependentSet(g)
	return float64(len(set)) / float64(len(lower)), false
}
