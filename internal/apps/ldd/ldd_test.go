package ldd

import (
	"math/rand"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

func TestDecomposeDiameterBound(t *testing.T) {
	g := graph.Grid(10, 10)
	for _, eps := range []float64{0.3, 0.5} {
		res, err := Decompose(g, Options{Eps: eps, Cfg: congest.Config{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		// Theorem 1.5: D = O(1/eps). Constant 16 is generous headroom for
		// the KPR constant at these sizes.
		bound := int(16.0 / eps)
		if res.MaxDiameter > bound {
			t.Errorf("eps=%v: max diameter %d exceeds %d", eps, res.MaxDiameter, bound)
		}
	}
}

func TestDecomposeCutBudget(t *testing.T) {
	g := graph.TriangulatedGrid(8, 8)
	eps := 0.4
	res, err := Decompose(g, Options{Eps: eps, Cfg: congest.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// ε budget with modest slack for the randomized chopping.
	if res.CutFraction > 1.5*eps {
		t.Errorf("cut fraction %v far above eps %v", res.CutFraction, eps)
	}
}

func TestDecomposeClustersConnected(t *testing.T) {
	g := graph.Grid(8, 8)
	res, err := Decompose(g, Options{Eps: 0.4, Cfg: congest.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[int][]int)
	for v, l := range res.Labels {
		groups[l] = append(groups[l], v)
	}
	for l, members := range groups {
		sub, _ := g.Induce(members).Materialize()
		if !sub.Connected() {
			t.Errorf("cluster %d disconnected", l)
		}
	}
}

func TestBaselineMPXDiameterWorse(t *testing.T) {
	// The baseline achieves D = O(log n/eps); on a large grid with small
	// eps, the framework's O(1/eps) diameter should not be larger than the
	// baseline's by more than a constant — and typically is smaller.
	g := graph.Grid(12, 12)
	eps := 0.3
	fw, err := Decompose(g, Options{Eps: eps, Cfg: congest.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	base, metrics, err := Baseline(g, eps, congest.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Rounds == 0 {
		t.Error("baseline should take rounds")
	}
	if fw.MaxDiameter > 2*base.MaxDiameter+8 {
		t.Errorf("framework diameter %d much worse than baseline %d",
			fw.MaxDiameter, base.MaxDiameter)
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := Decompose(g, Options{Eps: 0}); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, _, err := Baseline(g, 0, congest.Config{}); err == nil {
		t.Error("baseline eps=0 accepted")
	}
}

func TestWeightedCutFraction(t *testing.T) {
	// The KPR chop cuts each edge with probability independent of its
	// weight, so the weighted cut fraction tracks the unweighted one. With
	// uniform weights they are identical; with random weights they stay
	// within a factor ~3 on a reasonably sized instance.
	rng := rand.New(rand.NewSource(11))
	base := graph.Grid(10, 10)
	wg := graph.WithRandomWeights(base, 50, rng)
	res, err := Decompose(wg, Options{Eps: 0.4, Cfg: congest.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutWeightFraction < 0 || res.CutWeightFraction > 1 {
		t.Fatalf("weight fraction out of range: %v", res.CutWeightFraction)
	}
	if res.CutFraction > 0 {
		ratio := res.CutWeightFraction / res.CutFraction
		if ratio > 3 || ratio < 1.0/3 {
			t.Errorf("weighted cut %.3f far from unweighted %.3f",
				res.CutWeightFraction, res.CutFraction)
		}
	}
	// Uniform weights: exactly equal.
	res2, err := Decompose(base, Options{Eps: 0.4, Cfg: congest.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CutWeightFraction != res2.CutFraction {
		t.Errorf("unweighted graph: weight fraction %v != cut fraction %v",
			res2.CutWeightFraction, res2.CutFraction)
	}
}

func TestDiameterShrinksWithEps(t *testing.T) {
	g := graph.Grid(12, 12)
	diam := func(eps float64) int {
		res, err := Decompose(g, Options{Eps: eps, Cfg: congest.Config{Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxDiameter
	}
	loose, tight := diam(0.8), diam(0.15)
	if loose > tight {
		t.Errorf("smaller eps should allow larger clusters: D(0.8)=%d D(0.15)=%d", loose, tight)
	}
}
