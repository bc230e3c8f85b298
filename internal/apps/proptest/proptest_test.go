package proptest

import (
	"math/rand"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/minor"
)

func TestPlanarInputsAllAccept(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	planars := map[string]*graph.Graph{
		"grid":    graph.Grid(6, 6),
		"trigrid": graph.TriangulatedGrid(5, 5),
		"tri":     graph.RandomMaximalPlanar(40, rng),
		"tree":    graph.RandomTree(30, rng),
		"union":   graph.Disjoint(graph.Grid(4, 4), graph.Cycle(7)),
	}
	for name, g := range planars {
		v, err := Test(g, minor.Planarity(), Options{Eps: 0.1, Cfg: congest.Config{Seed: 2}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.AllAccept {
			t.Errorf("%s: planar input rejected (one-sided error violated)", name)
		}
	}
}

func TestFarInputsRejected(t *testing.T) {
	// Disjoint K5 copies are certifiably far from planar.
	g := DisjointForbiddenCliques(5, 6)
	v, err := Test(g, minor.Planarity(), Options{Eps: 0.05, Cfg: congest.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if v.AllAccept {
		t.Error("6 disjoint K5s accepted — some vertex must reject")
	}
	rejected := 0
	for _, a := range v.Accepts {
		if !a {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("no rejecting vertex")
	}
}

func TestPlantedCliquesRejected(t *testing.T) {
	base := graph.Grid(5, 5)
	g := PlantCliques(base, 5, 3)
	v, err := Test(g, minor.Planarity(), Options{Eps: 0.05, Cfg: congest.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if v.AllAccept {
		t.Error("grid with planted K5s accepted")
	}
	// The planar base vertices should all accept (their clusters are
	// planar).
	for vtx := 0; vtx < base.N(); vtx++ {
		if !v.Accepts[vtx] {
			t.Errorf("planar base vertex %d rejected", vtx)
		}
	}
}

func TestForestPropertyTester(t *testing.T) {
	p := minor.Forests()
	tree := graph.RandomTree(25, rand.New(rand.NewSource(7)))
	v, err := Test(tree, p, Options{Eps: 0.2, Cfg: congest.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.AllAccept {
		t.Error("forest rejected by forest tester")
	}
	// Disjoint triangles: every triangle needs an edge removed — far from a
	// forest.
	tri := DisjointForbiddenCliques(3, 8)
	v2, err := Test(tri, p, Options{Eps: 0.1, Cfg: congest.Config{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.AllAccept {
		t.Error("disjoint triangles accepted by forest tester")
	}
}

func TestTrivialPropertyAlwaysAccepts(t *testing.T) {
	all := minor.Property{Name: "all", Check: func(*graph.Graph) bool { return true }}
	g := graph.Complete(8)
	v, err := Test(g, all, Options{Eps: 0.1, Cfg: congest.Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.AllAccept {
		t.Error("trivial property must accept everything")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Test(graph.Path(3), minor.Planarity(), Options{Eps: 0}); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestVerdictReasonsPropertyViolation(t *testing.T) {
	g := PlantCliques(graph.Grid(4, 4), 5, 2)
	v, err := Test(g, minor.Planarity(), Options{Eps: 0.05, Cfg: congest.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	tally := make(map[RejectReason]int)
	for _, r := range v.ClusterReasons {
		if r != AcceptedCluster {
			tally[r]++
		}
	}
	if tally[PropertyViolation] == 0 {
		t.Errorf("expected property-violation rejections, got %v", tally)
	}
	if tally[DegreeCondition] != 0 {
		t.Errorf("unexpected degree-condition rejections on this instance: %v", tally)
	}
	// Stringer coverage.
	if PropertyViolation.String() != "property-violation" ||
		DegreeCondition.String() != "degree-condition" ||
		AcceptedCluster.String() != "accept" {
		t.Error("RejectReason strings wrong")
	}
}

func TestDisjointForbiddenCliquesShape(t *testing.T) {
	g := DisjointForbiddenCliques(5, 3)
	if g.N() != 15 || g.M() != 30 {
		t.Errorf("got n=%d m=%d, want 15, 30", g.N(), g.M())
	}
	if minor.IsPlanar(g) {
		t.Error("disjoint K5s must be non-planar")
	}
}
