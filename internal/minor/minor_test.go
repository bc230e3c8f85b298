package minor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"expandergap/internal/graph"
)

func TestIsPlanarBasics(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"K1", graph.Complete(1), true},
		{"K4", graph.Complete(4), true},
		{"K5", graph.Complete(5), false},
		{"K6", graph.Complete(6), false},
		{"K33", graph.CompleteBipartite(3, 3), false},
		{"K23", graph.CompleteBipartite(2, 3), true},
		{"path", graph.Path(10), true},
		{"cycle", graph.Cycle(10), true},
		{"grid", graph.Grid(6, 6), true},
		{"trigrid", graph.TriangulatedGrid(5, 5), true},
		{"petersen-ish hypercube Q3", graph.Hypercube(3), true},
		{"Q4", graph.Hypercube(4), false},
		{"star", graph.Star(9), true},
		{"wheel", graph.Wheel(8), true},
		{"prism", graph.Prism(6), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsPlanar(tc.g); got != tc.want {
				t.Errorf("IsPlanar = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestIsPlanarSubdivisions(t *testing.T) {
	// Subdivisions preserve (non-)planarity.
	for k := 1; k <= 3; k++ {
		if IsPlanar(graph.Subdivide(graph.Complete(5), k)) {
			t.Errorf("subdivided K5 (k=%d) must be non-planar", k)
		}
		if IsPlanar(graph.Subdivide(graph.CompleteBipartite(3, 3), k)) {
			t.Errorf("subdivided K33 (k=%d) must be non-planar", k)
		}
		if !IsPlanar(graph.Subdivide(graph.Grid(4, 4), k)) {
			t.Errorf("subdivided grid (k=%d) must be planar", k)
		}
	}
}

func TestIsPlanarGeneratedTriangulations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{5, 10, 25, 60} {
		g := graph.RandomMaximalPlanar(n, rng)
		if !IsPlanar(g) {
			t.Errorf("RandomMaximalPlanar(%d) reported non-planar", n)
		}
		if g.M() != 3*n-6 {
			t.Errorf("triangulation edge count %d != %d", g.M(), 3*n-6)
		}
	}
	for _, n := range []int{10, 40} {
		g := graph.RandomPlanar(n, 0.6, rng)
		if !IsPlanar(g) {
			t.Errorf("RandomPlanar(%d) reported non-planar", n)
		}
		if !IsPlanar(graph.RandomOuterplanar(n, rng)) {
			t.Errorf("RandomOuterplanar(%d) reported non-planar", n)
		}
	}
}

func TestIsPlanarNonplanarWithCutVertices(t *testing.T) {
	// K5 hanging off a path through a cut vertex: still non-planar.
	k5 := graph.Complete(5)
	b := graph.NewBuilder(8)
	for _, e := range k5.Edges() {
		b.AddEdge(e.U, e.V)
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	if IsPlanar(b.Graph()) {
		t.Error("K5 plus pendant path must be non-planar")
	}
	// Two planar blocks sharing a cut vertex: planar.
	two := graph.Disjoint(graph.Complete(4), graph.Complete(4))
	b2 := graph.NewBuilder(8)
	for _, e := range two.Edges() {
		b2.AddEdge(e.U, e.V)
	}
	b2.AddEdge(3, 4)
	if !IsPlanar(b2.Graph()) {
		t.Error("two K4 blocks joined by a bridge must be planar")
	}
}

func TestIsPlanarDisjointUnions(t *testing.T) {
	if !IsPlanar(graph.Disjoint(graph.Grid(3, 3), graph.Cycle(5))) {
		t.Error("disjoint union of planar graphs is planar")
	}
	if IsPlanar(graph.Disjoint(graph.Grid(3, 3), graph.Complete(5))) {
		t.Error("union containing K5 is non-planar")
	}
}

func TestHasMinorSmall(t *testing.T) {
	cases := []struct {
		name string
		g, h *graph.Graph
		want bool
	}{
		{"K4 in K5", graph.Complete(5), graph.Complete(4), true},
		{"K5 in K4", graph.Complete(4), graph.Complete(5), false},
		{"K3 in C5", graph.Cycle(5), graph.Complete(3), true}, // contract cycle edges
		{"K3 in tree", graph.Path(6), graph.Complete(3), false},
		{"K4 in grid", graph.Grid(3, 3), graph.Complete(4), true},
		{"K5 in grid", graph.Grid(3, 3), graph.Complete(5), false},
		{"K33 in Q3", graph.Hypercube(3), graph.CompleteBipartite(3, 3), false},
		{"K33 in K5", graph.Complete(5), graph.CompleteBipartite(3, 3), false},
		{"star in path", graph.Path(5), graph.Star(2), true},
		{"K13 in path", graph.Path(5), graph.Star(3), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := HasMinor(tc.g, tc.h); got != tc.want {
				t.Errorf("HasMinor = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestHasMinorSubdivision(t *testing.T) {
	// A subdivision of H always contains H as a minor.
	for _, h := range []*graph.Graph{graph.Complete(4), graph.CompleteBipartite(2, 3)} {
		sub := graph.Subdivide(h, 1)
		if !HasMinor(sub, h) {
			t.Errorf("subdivision must contain original as minor (h: %v)", h)
		}
	}
}

// Wagner's theorem cross-validation: on small random graphs, planarity
// (Demoucron) agrees with "no K5 minor and no K3,3 minor" (contract search).
func TestWagnerCrossValidation(t *testing.T) {
	k5 := graph.Complete(5)
	k33 := graph.CompleteBipartite(3, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		g := graph.ErdosRenyi(n, 0.5, rng)
		planar := IsPlanar(g)
		wagner := !HasMinor(g, k5) && !HasMinor(g, k33)
		return planar == wagner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHasK5K33Minor(t *testing.T) {
	// By Wagner's theorem a planar graph has neither minor, so planarity
	// settles the negative cases that the exhaustive search would take
	// minutes to refute on 16 vertices.
	if !IsPlanar(graph.Grid(4, 4)) {
		t.Error("grid is planar, so it has no K5 minor")
	}
	if !HasMinor(graph.Complete(6), graph.Complete(5)) {
		t.Error("K6 has a K5 minor")
	}
	if !HasMinor(graph.CompleteBipartite(3, 4), graph.CompleteBipartite(3, 3)) {
		t.Error("K34 has a K33 minor")
	}
	if !IsPlanar(graph.RandomOuterplanar(10, rand.New(rand.NewSource(1)))) {
		t.Error("outerplanar graph is planar, so it has no K33 minor")
	}
}

func TestPropertyPlanarity(t *testing.T) {
	p := Planarity()
	if !p.Holds(graph.Grid(5, 5)) {
		t.Error("grid should satisfy planarity")
	}
	if p.Holds(graph.Complete(5)) {
		t.Error("K5 should not satisfy planarity")
	}
	s, ok := p.CliqueNumberBound(10)
	if !ok || s != 5 {
		t.Errorf("planarity clique bound = %d (ok=%v), want 5", s, ok)
	}
}

func TestPropertyForests(t *testing.T) {
	p := Forests()
	if !p.Holds(graph.Path(8)) || p.Holds(graph.Cycle(4)) {
		t.Error("forest property wrong")
	}
	s, ok := p.CliqueNumberBound(10)
	if !ok || s != 3 {
		t.Errorf("forest clique bound = %d, want 3", s)
	}
	// Generic minor path agrees with the specialized check.
	generic := Property{Forbidden: p.Forbidden}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		g := graph.ErdosRenyi(6, 0.3, rng)
		if generic.Holds(g) != p.Holds(g) {
			t.Fatalf("generic vs specialized forest check disagree on %v", g)
		}
	}
}

func TestCliqueBoundTrivialProperty(t *testing.T) {
	all := Property{Name: "everything", Check: func(*graph.Graph) bool { return true }}
	if _, ok := all.CliqueNumberBound(6); ok {
		t.Error("trivial property should report no forbidden clique")
	}
}

func TestPlanarityLargeSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.RandomMaximalPlanar(300, rng)
	if !IsPlanar(g) {
		t.Error("large triangulation misclassified")
	}
	// Adding any edge to a maximal planar graph breaks planarity.
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	added := false
	for u := 0; u < g.N() && !added; u++ {
		for v := u + 1; v < g.N() && !added; v++ {
			if !g.HasEdge(u, v) {
				b.AddEdge(u, v)
				added = true
			}
		}
	}
	if !added {
		t.Fatal("no non-edge found")
	}
	if IsPlanar(b.Graph()) {
		t.Error("triangulation plus an extra edge must be non-planar")
	}
}
