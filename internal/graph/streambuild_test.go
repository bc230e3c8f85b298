package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// streamFromGraph replays g's canonical edge list through a StreamingBuilder.
func streamFromGraph(t *testing.T, g *Graph) *Graph {
	t.Helper()
	sb, err := NewStreamingBuilder(g.N(), g.M(), g.Weighted(), g.Signed())
	if err != nil {
		t.Fatalf("NewStreamingBuilder: %v", err)
	}
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if err := sb.Count(e.U, e.V); err != nil {
			t.Fatalf("Count(%v): %v", e, err)
		}
	}
	if err := sb.FinishCount(); err != nil {
		t.Fatalf("FinishCount: %v", err)
	}
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if err := sb.Place(e.U, e.V, g.Weight(i), g.Sign(i)); err != nil {
			t.Fatalf("Place(%v): %v", e, err)
		}
	}
	out, err := sb.Graph()
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	return out
}

// requireIdenticalGraphs asserts two graphs agree on every stored array and
// cached statistic — the bit-identical contract between Builder and
// StreamingBuilder.
func requireIdenticalGraphs(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("size mismatch: got (n=%d,m=%d), want (n=%d,m=%d)", got.N(), got.M(), want.N(), want.M())
	}
	if got.Weighted() != want.Weighted() || got.Signed() != want.Signed() {
		t.Fatalf("weighted/signed flags differ")
	}
	if got.MaxDegree() != want.MaxDegree() || got.MinDegree() != want.MinDegree() {
		t.Fatalf("degree stats differ: got (%d,%d), want (%d,%d)",
			got.MaxDegree(), got.MinDegree(), want.MaxDegree(), want.MinDegree())
	}
	if got.MaxWeight() != want.MaxWeight() || got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("weight stats differ")
	}
	for i := range want.adjOff {
		if got.adjOff[i] != want.adjOff[i] {
			t.Fatalf("adjOff[%d] = %d, want %d", i, got.adjOff[i], want.adjOff[i])
		}
	}
	for i := range want.adjTo {
		if got.adjTo[i] != want.adjTo[i] || got.adjIdx[i] != want.adjIdx[i] {
			t.Fatalf("adjacency slot %d differs: (%d,%d) vs (%d,%d)",
				i, got.adjTo[i], got.adjIdx[i], want.adjTo[i], want.adjIdx[i])
		}
	}
	for i := range want.edges {
		if got.edges[i] != want.edges[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, got.edges[i], want.edges[i])
		}
		if got.Weight(i) != want.Weight(i) || got.Sign(i) != want.Sign(i) {
			t.Fatalf("edge %d annotation differs", i)
		}
	}
}

func TestStreamingBuilderMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string]*Graph{
		"grid":     Grid(7, 9),
		"planar":   RandomMaximalPlanar(120, rng),
		"weighted": WithRandomWeights(TriangulatedGrid(6, 6), 50, rng),
		"signed":   WithRandomSigns(Torus(5, 5), 0.4, rng),
		"er":       ErdosRenyi(60, 0.15, rng),
		"empty":    NewBuilder(5).Graph(),
		"edgeless": NewBuilder(0).Graph(),
		"single":   FromEdges(2, []Edge{{U: 0, V: 1}}),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			requireIdenticalGraphs(t, streamFromGraph(t, g), g)
		})
	}
}

func TestStreamingBuilderErrors(t *testing.T) {
	mk := func() *StreamingBuilder {
		sb, err := NewStreamingBuilder(4, 2, false, false)
		if err != nil {
			t.Fatalf("NewStreamingBuilder: %v", err)
		}
		return sb
	}
	t.Run("negative-n", func(t *testing.T) {
		if _, err := NewStreamingBuilder(-1, 0, false, false); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("count-out-of-range", func(t *testing.T) {
		sb := mk()
		if err := sb.Count(0, 4); err == nil {
			t.Fatal("expected range error")
		}
	})
	t.Run("count-self-loop", func(t *testing.T) {
		sb := mk()
		if err := sb.Count(2, 2); err == nil {
			t.Fatal("expected self-loop error")
		}
	})
	t.Run("count-overrun", func(t *testing.T) {
		sb := mk()
		for i := 0; i < 2; i++ {
			if err := sb.Count(0, i+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := sb.Count(0, 3); err == nil {
			t.Fatal("expected overrun error")
		}
	})
	t.Run("finish-undercount", func(t *testing.T) {
		sb := mk()
		if err := sb.Count(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := sb.FinishCount(); err == nil {
			t.Fatal("expected undercount error")
		}
	})
	t.Run("place-before-finish", func(t *testing.T) {
		sb := mk()
		if err := sb.Place(0, 1, 1, 1); err == nil {
			t.Fatal("expected phase error")
		}
	})
	t.Run("place-out-of-order", func(t *testing.T) {
		sb := mk()
		for _, e := range [][2]int{{1, 2}, {0, 1}} {
			sb.Count(e[0], e[1])
		}
		if err := sb.FinishCount(); err != nil {
			t.Fatal(err)
		}
		if err := sb.Place(1, 2, 1, 1); err != nil {
			t.Fatal(err)
		}
		err := sb.Place(0, 1, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Fatalf("expected out-of-order error, got %v", err)
		}
	})
	t.Run("place-duplicate", func(t *testing.T) {
		sb := mk()
		sb.Count(0, 1)
		sb.Count(0, 1)
		if err := sb.FinishCount(); err != nil {
			t.Fatal(err)
		}
		if err := sb.Place(0, 1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := sb.Place(1, 0, 1, 1); err == nil {
			t.Fatal("expected duplicate (non-increasing) error")
		}
	})
	t.Run("place-mismatched-passes", func(t *testing.T) {
		sb := mk()
		sb.Count(0, 1)
		sb.Count(0, 1)
		if err := sb.FinishCount(); err != nil {
			t.Fatal(err)
		}
		if err := sb.Place(0, 1, 1, 1); err != nil {
			t.Fatal(err)
		}
		// Edge {2,3} was never counted: row 2 has no capacity.
		err := sb.Place(2, 3, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("expected row-overflow error, got %v", err)
		}
	})
	t.Run("graph-underplaced", func(t *testing.T) {
		sb := mk()
		sb.Count(0, 1)
		sb.Count(2, 3)
		if err := sb.FinishCount(); err != nil {
			t.Fatal(err)
		}
		if err := sb.Place(0, 1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := sb.Graph(); err == nil {
			t.Fatal("expected underplaced error")
		}
	})
	t.Run("bad-weight", func(t *testing.T) {
		sb, _ := NewStreamingBuilder(3, 1, true, false)
		sb.Count(0, 1)
		sb.FinishCount()
		if err := sb.Place(0, 1, 0, 1); err == nil {
			t.Fatal("expected non-positive weight error")
		}
	})
	t.Run("bad-sign", func(t *testing.T) {
		sb, _ := NewStreamingBuilder(3, 1, false, true)
		sb.Count(0, 1)
		sb.FinishCount()
		if err := sb.Place(0, 1, 1, 0); err == nil {
			t.Fatal("expected invalid sign error")
		}
	})
}

// TestSelfLoopSentinel: a self-loop wraps ErrSelfLoop on every streaming
// path, as it does through Builder.TryAddEdge and Overlay.
func TestSelfLoopSentinel(t *testing.T) {
	read := func(text string) func() error {
		return func() error {
			_, err := ReadEdgeList(strings.NewReader(text))
			return err
		}
	}
	cases := []struct {
		name string
		run  func() error
		line string // the line number the error must name, if any
	}{
		{"read-sorted", read("3 2\n0 1\n2 2\n"), "line 3"},
		{"read-unsorted", read("4 3\n2 3\n0 1\n1 1\n"), "line 4"},
		{"count", func() error {
			sb, err := NewStreamingBuilder(3, 1, false, false)
			if err != nil {
				return err
			}
			return sb.Count(2, 2)
		}, ""},
		{"place", func() error {
			sb, err := NewStreamingBuilder(3, 1, false, false)
			if err != nil {
				return err
			}
			if err := sb.Count(0, 1); err != nil {
				return err
			}
			if err := sb.FinishCount(); err != nil {
				return err
			}
			return sb.Place(2, 2, 1, 1)
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if !errors.Is(err, ErrSelfLoop) {
				t.Fatalf("error %v does not wrap ErrSelfLoop", err)
			}
			if !strings.Contains(err.Error(), tc.line) {
				t.Fatalf("error %q does not name %s", err, tc.line)
			}
		})
	}
}
