package expander

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"expandergap/internal/conductance"
	"expandergap/internal/graph"
)

// Stats summarizes a decomposition's structure for reporting.
type Stats struct {
	// Clusters is the cluster count.
	Clusters int
	// CutEdges is |E^r|.
	CutEdges int
	// CutFraction is |E^r| / |E|.
	CutFraction float64
	// Sizes holds cluster sizes in descending order.
	Sizes []int
	// MedianSize and LargestSize summarize the distribution.
	MedianSize, LargestSize int
	// Singletons counts 1-vertex clusters.
	Singletons int
	// MaxDiameter is the largest induced-cluster diameter.
	MaxDiameter int
	// MinConductance is the smallest per-cluster conductance: exact for
	// clusters of at most conductance.MaxExactN vertices, and otherwise a
	// Cheeger estimate after 200 power iterations, not a certified lower
	// bound (see conductance.EstimateBounds).
	MinConductance float64
}

// ComputeStats measures d against g.
func (d *Decomposition) ComputeStats(g *graph.Graph, rng *rand.Rand) Stats {
	st := Stats{
		Clusters:       len(d.Clusters),
		CutEdges:       len(d.Removed),
		CutFraction:    d.CutFraction(g),
		MinConductance: 2,
	}
	for i, c := range d.Clusters {
		st.Sizes = append(st.Sizes, len(c))
		if len(c) == 1 {
			st.Singletons++
			continue
		}
		sub := d.ClusterView(g, i)
		if dd := sub.Diameter(); dd > st.MaxDiameter {
			st.MaxDiameter = dd
		}
		var phi float64
		if sub.N() <= conductance.MaxExactN {
			phi = conductance.ExactConductance(sub)
		} else {
			phi = conductance.EstimateBounds(sub, 200, rng).Lower
		}
		if phi < st.MinConductance {
			st.MinConductance = phi
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(st.Sizes)))
	if len(st.Sizes) > 0 {
		st.LargestSize = st.Sizes[0]
		st.MedianSize = st.Sizes[len(st.Sizes)/2]
	}
	if st.MinConductance > 1.5 {
		st.MinConductance = 0 // no multi-vertex clusters
	}
	return st
}

// String renders a one-line summary.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "clusters=%d cut=%d (%.3f) largest=%d median=%d singletons=%d maxDiam=%d minΦ=%.4f",
		s.Clusters, s.CutEdges, s.CutFraction, s.LargestSize, s.MedianSize,
		s.Singletons, s.MaxDiameter, s.MinConductance)
	return sb.String()
}
