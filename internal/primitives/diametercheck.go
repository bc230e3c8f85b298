package primitives

import (
	"fmt"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

type diamCheckHandler struct {
	clusterBase
	b       int
	maxSeen int64
	marked  bool
}

// DiameterCheck implements the failure-detection subroutine of §2.3 of the
// paper. Given a bound b, every vertex computes the maximum ID within
// distance b inside its cluster, compares with its same-cluster neighbors,
// marks itself * on disagreement, and then propagates marks for 2b+1 rounds.
//
// Guarantee (as in the paper): if the cluster's diameter is at most b, no
// vertex is marked; if the diameter is at least 2b+1, every vertex is
// marked. Marked vertices know the clustering step failed and should reset
// to singleton clusters.
//
// The schedule is fixed by b: the ID exchange plus 3b+4 phase rounds. When
// those 3b+5 rounds exceed the simulator's round limit, DiameterCheck fails
// with congest.ErrMaxRounds before its first round.
func DiameterCheck(g *graph.Graph, cfg congest.Config, cluster ClusterAssignment, b int) ([]bool, congest.Metrics, error) {
	if err := cluster.Validate(g); err != nil {
		return nil, congest.Metrics{}, err
	}
	cfg.Obs.BeginPhase("diameter-check")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	if need, limit := 3*b+5, sim.Config().MaxRounds; need > limit {
		return nil, congest.Metrics{}, fmt.Errorf("primitives: diameter check needs %d rounds for b = %d, over the %d-round limit: %w",
			need, b, limit, congest.ErrMaxRounds)
	}
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		return &diamCheckHandler{
			clusterBase: clusterBase{clusterID: cluster[v.ID()]},
			b:           b,
		}
	})
	if err != nil {
		return nil, res.Metrics, err
	}
	marked := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		marked[v] = res.Outputs[v].(bool)
	}
	return marked, res.Metrics, nil
}

func (h *diamCheckHandler) Round(v *congest.Vertex, round int, recv []congest.Incoming) {
	pr, ok := h.absorb(v, round, recv)
	if !ok {
		h.maxSeen = int64(v.ID())
		return
	}
	// Schedule:
	//   pr in [1, b]:        flood max-ID (send current max each round).
	//   pr == b+1:           send own b-ball max to neighbors.
	//   pr == b+2:           compare; mark on disagreement; start mark flood.
	//   pr in [b+3, 3b+3]:   flood marks (2b+1 rounds).
	//   pr == 3b+4:          output and halt.
	switch {
	case pr <= h.b:
		if pr > 1 {
			for _, in := range recv {
				if len(in.Msg) == 1 && in.Msg[0] > h.maxSeen {
					h.maxSeen = in.Msg[0]
				}
			}
		}
		h.sendSame(v, h.maxSeen)
	case pr == h.b+1:
		// Absorb the last flood round, then share the final value.
		for _, in := range recv {
			if len(in.Msg) == 1 && in.Msg[0] > h.maxSeen {
				h.maxSeen = in.Msg[0]
			}
		}
		h.sendSame(v, h.maxSeen)
	case pr == h.b+2:
		for _, in := range recv {
			if len(in.Msg) == 1 && in.Msg[0] != h.maxSeen {
				h.marked = true
			}
		}
		if h.marked {
			h.sendSame(v, 1)
		}
	case pr <= 3*h.b+3:
		for _, in := range recv {
			if len(in.Msg) == 1 && in.Msg[0] == 1 && !h.marked {
				h.marked = true
				h.sendSame(v, 1)
			}
		}
	default:
		for _, in := range recv {
			if len(in.Msg) == 1 && in.Msg[0] == 1 {
				h.marked = true
			}
		}
		v.SetOutput(h.marked)
		v.Halt()
	}
}
