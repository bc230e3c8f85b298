package expander

import (
	"strings"
	"testing"

	"expandergap/internal/graph"
)

func TestComputeStats(t *testing.T) {
	g := graph.Grid(6, 6)
	d, err := Decompose(g, 0.999, Options{Seed: 1, Phi: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats(g)
	if st.Clusters != len(d.Clusters) {
		t.Errorf("Clusters = %d, want %d", st.Clusters, len(d.Clusters))
	}
	if st.CutEdges != len(d.Removed) {
		t.Errorf("CutEdges = %d, want %d", st.CutEdges, len(d.Removed))
	}
	total := 0
	for _, s := range st.Sizes {
		total += s
	}
	if total != g.N() {
		t.Errorf("sizes sum to %d, want %d", total, g.N())
	}
	if st.LargestSize != st.Sizes[0] {
		t.Error("LargestSize inconsistent")
	}
	if !strings.Contains(st.String(), "clusters=") {
		t.Error("Stats.String malformed")
	}
}

func TestComputeStatsSingletons(t *testing.T) {
	g := graph.Path(3)
	d := Singletons(g)
	st := d.ComputeStats(g)
	if st.Singletons != 3 || st.MaxDiameter != 0 {
		t.Errorf("singleton stats wrong: %+v", st)
	}
}
