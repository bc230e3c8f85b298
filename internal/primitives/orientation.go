package primitives

import (
	"fmt"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// Orientation is the output of LowOutDegreeOrientation: for each edge, the
// vertex that owns (out-orients) it.
type Orientation struct {
	// Owner[idx] is the vertex that out-orients edge idx.
	Owner []int
	// OutDegree[v] is the number of edges v owns.
	OutDegree []int
	// Phases is the number of peeling phases used.
	Phases int
}

const (
	orientMsgPeel = iota + 1
)

type orientHandler struct {
	clusterBase
	density      int // edge-density upper bound d
	active       bool
	activePorts  map[int]bool // same-cluster ports still active
	ownedPorts   []int
	budgetPhases int
	phase        int
}

// LowOutDegreeOrientation computes the Barenboim–Elkin orientation inside
// every cluster: given an upper bound d on the edge density of each cluster
// subgraph, it orients intra-cluster edges so that every vertex has
// out-degree at most 4d, in O(log n) peeling phases. In each phase, every
// active vertex with at most 4d active same-cluster neighbors takes
// ownership of all its active incident edges and retires; since the average
// active degree is at most 2d, at least half the active vertices retire per
// phase.
//
// The paper (§2.2) uses this orientation so that each vertex only sends O(d)
// edge descriptions during topology gathering.
func LowOutDegreeOrientation(g *graph.Graph, cfg congest.Config, cluster ClusterAssignment, density int, budgetPhases int) (Orientation, congest.Metrics, error) {
	if err := cluster.Validate(g); err != nil {
		return Orientation{}, congest.Metrics{}, err
	}
	if density < 1 {
		return Orientation{}, congest.Metrics{}, fmt.Errorf("primitives: density bound must be >= 1, got %d", density)
	}
	cfg.Obs.BeginPhase("orientation")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		return &orientHandler{
			clusterBase:  clusterBase{clusterID: cluster[v.ID()]},
			density:      density,
			active:       true,
			budgetPhases: budgetPhases,
		}
	})
	if err != nil {
		return Orientation{}, res.Metrics, err
	}
	orient := Orientation{
		Owner:     make([]int, g.M()),
		OutDegree: make([]int, g.N()),
	}
	for i := range orient.Owner {
		orient.Owner[i] = -1
	}
	maxPhases := 0
	for v := 0; v < g.N(); v++ {
		out := res.Outputs[v].(orientOutput)
		if out.phases > maxPhases {
			maxPhases = out.phases
		}
		for _, nbr := range out.ownedNeighbors {
			idx, ok := g.EdgeIndex(v, nbr)
			if !ok {
				return Orientation{}, res.Metrics, fmt.Errorf("primitives: vertex %d claims non-edge {%d,%d}", v, v, nbr)
			}
			// Both endpoints of an edge may peel in the same phase and claim
			// it; the smaller ID wins deterministically.
			if orient.Owner[idx] == -1 || v < orient.Owner[idx] {
				orient.Owner[idx] = v
			}
		}
	}
	for _, owner := range orient.Owner {
		if owner >= 0 {
			orient.OutDegree[owner]++
		}
	}
	orient.Phases = maxPhases
	return orient, res.Metrics, nil
}

type orientOutput struct {
	ownedNeighbors []int
	phases         int
}

func (h *orientHandler) Round(v *congest.Vertex, round int, recv []congest.Incoming) {
	pr, ok := h.absorb(v, round, recv)
	if !ok {
		h.activePorts = make(map[int]bool)
		return
	}
	if pr == 1 {
		for _, p := range h.samePorts {
			h.activePorts[p] = true
		}
	}
	// Phase structure (2 rounds per phase):
	//   odd pr:  decide whether to peel; if so, claim active edges and
	//            announce retirement to active neighbors.
	//   even pr: process retirements received.
	if pr%2 == 1 {
		h.phase++
		if h.active && len(h.activePorts) <= 4*h.density {
			peel := v.MsgBuf(1)
			peel[0] = orientMsgPeel
			for p := range h.activePorts {
				h.ownedPorts = append(h.ownedPorts, p)
				v.Send(p, peel)
			}
			h.active = false
		}
	} else {
		for _, in := range recv {
			if len(in.Msg) == 1 && in.Msg[0] == orientMsgPeel {
				delete(h.activePorts, in.Port)
			}
		}
		done := h.phase >= h.budgetPhases || (!h.active && len(h.activePorts) == 0)
		if done {
			out := orientOutput{phases: h.phase}
			for _, p := range h.ownedPorts {
				out.ownedNeighbors = append(out.ownedNeighbors, v.NeighborID(p))
			}
			v.SetOutput(out)
			v.Halt()
		}
	}
}
