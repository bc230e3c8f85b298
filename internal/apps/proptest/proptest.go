package proptest

import (
	"fmt"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
	"expandergap/internal/minor"
)

// Options configures Test.
type Options struct {
	// Eps is the proximity parameter.
	Eps float64
	// Cfg is the simulator configuration.
	Cfg congest.Config
	// Core forwards extra framework options.
	Core core.Options
}

// maxCliqueProbe bounds the search for the forbidden clique size s.
const maxCliqueProbe = 8

// RejectReason explains why a cluster's vertices rejected.
type RejectReason int

const (
	// AcceptedCluster means the cluster found no problem.
	AcceptedCluster RejectReason = iota
	// PropertyViolation means the leader's gathered topology lacks the
	// property.
	PropertyViolation
	// DegreeCondition means the Lemma 2.3 check failed — only possible when
	// the network is not K_s-minor-free.
	DegreeCondition
)

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	switch r {
	case AcceptedCluster:
		return "accept"
	case PropertyViolation:
		return "property-violation"
	case DegreeCondition:
		return "degree-condition"
	default:
		return fmt.Sprintf("RejectReason(%d)", int(r))
	}
}

// Verdict is the outcome of a distributed property test.
type Verdict struct {
	// Accepts[v] is vertex v's output.
	Accepts []bool
	// AllAccept is true when every vertex accepted.
	AllAccept bool
	// ClusterReasons records, per framework cluster ID, why that cluster
	// rejected (AcceptedCluster if it did not).
	ClusterReasons []RejectReason
	// Solution carries framework details.
	Solution *core.Solution
}

// Test runs the distributed property tester for p on g.
func Test(g *graph.Graph, p minor.Property, opts Options) (*Verdict, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("proptest: eps must be in (0,1), got %v", opts.Eps)
	}
	n := g.N()
	verdict := &Verdict{Accepts: make([]bool, n), AllAccept: true}
	s, ok := p.CliqueNumberBound(maxCliqueProbe)
	if !ok {
		// The property contains all cliques, hence all graphs (it is
		// minor-closed): trivial tester, everyone accepts.
		for v := range verdict.Accepts {
			verdict.Accepts[v] = true
		}
		return verdict, nil
	}
	// The forbidden clique K_s fixes the density bound: K_s-minor-free
	// graphs have edge density O(s·√log s); the small s values here are
	// covered by s+2.
	density := s + 2

	coreOpts := opts.Core
	coreOpts.Eps = opts.Eps
	coreOpts.Density = density
	coreOpts.Cfg = opts.Cfg

	sol, err := core.Run(g, coreOpts, func(cluster *graph.Graph, toOld []int) map[int]int64 {
		holds := int64(0)
		if p.Holds(cluster) {
			holds = 1
		}
		out := make(map[int]int64, len(toOld))
		for _, v := range toOld {
			out[v] = holds
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	verdict.Solution = sol
	verdict.ClusterReasons = make([]RejectReason, len(sol.Clusters))
	for cid, ci := range sol.Clusters {
		if len(ci.Members) > 1 && !ci.DegreeConditionOK {
			verdict.ClusterReasons[cid] = DegreeCondition
		}
	}
	for v := 0; v < n; v++ {
		accept := sol.Values[v] == 1
		cid := sol.Decomposition.Assignment[v]
		if !accept && !sol.Undelivered[v] && verdict.ClusterReasons[cid] == AcceptedCluster {
			verdict.ClusterReasons[cid] = PropertyViolation
		}
		// Routing loss → Accept (one-sided error), per §3.4.
		if sol.Undelivered[v] {
			accept = true
		}
		// Degree-condition failure → Reject.
		if verdict.ClusterReasons[cid] == DegreeCondition {
			accept = false
		}
		verdict.Accepts[v] = accept
		verdict.AllAccept = verdict.AllAccept && accept
	}
	return verdict, nil
}

// DisjointForbiddenCliques builds a graph that is certifiably eps-far from
// the property with forbidden clique K_s: k disjoint copies of K_s. Turning
// it into a member of the property requires editing at least one edge per
// copy (each copy contains the forbidden minor), so the graph is ε-far for
// every ε ≤ k / |E| = 1/binom(s,2).
func DisjointForbiddenCliques(s, k int) *graph.Graph {
	parts := make([]*graph.Graph, k)
	for i := range parts {
		parts[i] = graph.Complete(s)
	}
	return graph.Disjoint(parts...)
}

// PlantCliques returns base with k disjoint K_s clusters appended (disjoint
// union), preserving the base's structure while making the result non-
// planar in k certifiable places.
func PlantCliques(base *graph.Graph, s, k int) *graph.Graph {
	parts := []*graph.Graph{base}
	for i := 0; i < k; i++ {
		parts = append(parts, graph.Complete(s))
	}
	return graph.Disjoint(parts...)
}
