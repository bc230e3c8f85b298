package expander

import (
	"fmt"
	"sort"
	"strings"

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
}

// ComputeStats measures d's structure against g. Verify checks the cluster
// conductances.
func (d *Decomposition) ComputeStats(g *graph.Graph) Stats {
	st := Stats{
		Clusters:    len(d.Clusters),
		CutEdges:    len(d.Removed),
		CutFraction: d.CutFraction(g),
	}
	for i, c := range d.Clusters {
		st.Sizes = append(st.Sizes, len(c))
		if len(c) == 1 {
			st.Singletons++
			continue
		}
		if dd := d.ClusterView(g, i).Diameter(); dd > st.MaxDiameter {
			st.MaxDiameter = dd
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(st.Sizes)))
	if len(st.Sizes) > 0 {
		st.LargestSize = st.Sizes[0]
		st.MedianSize = st.Sizes[len(st.Sizes)/2]
	}
	return st
}

// String renders a one-line summary.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "clusters=%d cut=%d (%.3f) largest=%d median=%d singletons=%d maxDiam=%d",
		s.Clusters, s.CutEdges, s.CutFraction, s.LargestSize, s.MedianSize,
		s.Singletons, s.MaxDiameter)
	return sb.String()
}
