package conductance

import (
	"math"
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

func TestApproximatePageRankMassBounds(t *testing.T) {
	g := graph.Grid(6, 6)
	p := approximatePageRankDense(g, 0, 0.15, 1e-5)
	var total float64
	for v, pv := range p {
		if pv < 0 {
			t.Fatalf("negative mass at %d", v)
		}
		total += pv
	}
	if total > 1+1e-9 {
		t.Errorf("approximate PPR mass %v exceeds 1", total)
	}
	if total < 0.5 {
		t.Errorf("approximate PPR mass %v too small for epsPush=1e-5", total)
	}
	// Seed should carry the largest mass.
	for v, pv := range p {
		if v != 0 && pv > p[0] {
			t.Errorf("vertex %d mass %v exceeds seed mass %v", v, pv, p[0])
		}
	}
}

func TestApproximatePageRankLocality(t *testing.T) {
	// With a coarse epsPush the push process must stay local: on a long
	// path, far vertices receive nothing.
	g := graph.Path(200)
	p := approximatePageRankDense(g, 0, 0.2, 1e-3)
	for v := 50; v < 200; v++ {
		if p[v] != 0 {
			t.Errorf("mass leaked to distant vertex %d", v)
		}
	}
}

func TestNibbleFindsBarbellCut(t *testing.T) {
	// Two K8s joined by one edge: nibbling from inside one clique should
	// find (nearly) the bridge cut.
	b := graph.NewBuilder(16)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.AddEdge(i, j)
			b.AddEdge(8+i, 8+j)
		}
	}
	b.AddEdge(7, 8)
	g := b.Graph()
	s, phi := Nibble(g, 0, 0.1, 1e-6)
	if s == nil {
		t.Fatal("nibble found nothing")
	}
	exact := ExactConductance(g)
	if phi > 5*exact {
		t.Errorf("nibble conductance %v far above optimum %v", phi, exact)
	}
	// The returned side should be (close to) one clique.
	inFirst := 0
	for v := range s {
		if v < 8 {
			inFirst++
		}
	}
	if inFirst != len(s) && inFirst != 0 {
		t.Errorf("nibble cut mixes the cliques: %v", s)
	}
}

func TestNibbleOnExpanderReturnsHighConductance(t *testing.T) {
	g := graph.Complete(12)
	_, phi := Nibble(g, 0, 0.2, 1e-5)
	// A clique has no sparse cut; whatever nibble returns must have high
	// conductance.
	if phi < 0.3 {
		t.Errorf("nibble claims a sparse cut (Φ=%v) in a clique", phi)
	}
}

func TestNibbleDegenerate(t *testing.T) {
	single := graph.Path(1)
	if s, _ := Nibble(single, 0, 0.2, 1e-3); s != nil && len(s) > 1 {
		t.Error("nibble on singleton misbehaved")
	}
	empty := graph.NewBuilder(3).Graph()
	s, _ := Nibble(empty, 1, 0.2, 1e-3)
	if len(s) > 1 {
		t.Errorf("nibble on edgeless graph returned %v", s)
	}
}

func TestNibbleQualityOnGridFamilies(t *testing.T) {
	// Nibble's sweep cut is a genuine cut: its conductance upper-bounds the
	// graph conductance.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{16, 36} {
		side := int(math.Sqrt(float64(n)))
		g := graph.Grid(side, side)
		exact := ExactConductance(graph.Grid(3, 3)) // small reference only
		_ = exact
		seed := rng.Intn(g.N())
		s, phi := Nibble(g, seed, 0.1, 1e-6)
		if s == nil {
			t.Fatalf("n=%d: nibble empty", n)
		}
		if got := cutConductance(g, s); math.Abs(got-phi) > 1e-9 {
			t.Errorf("n=%d: reported Φ %v != recomputed %v", n, phi, got)
		}
	}
}
