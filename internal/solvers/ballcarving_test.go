package solvers

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"expandergap/internal/graph"
)

func TestBallCarvingCutBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.Graph{
		graph.Grid(12, 12),
		graph.TriangulatedGrid(10, 10),
		graph.RandomMaximalPlanar(150, rng),
	} {
		for _, eps := range []float64{0.2, 0.5} {
			res := BallCarving(g, eps)
			if float64(res.CutEdges) > eps*float64(g.M())+1 {
				t.Errorf("%v eps=%v: cut %d exceeds ε·m = %v",
					g, eps, res.CutEdges, eps*float64(g.M()))
			}
		}
	}
}

func TestBallCarvingDiameterLogBound(t *testing.T) {
	g := graph.Grid(14, 14)
	eps := 0.3
	res := BallCarving(g, eps)
	// Radius per ball ≤ log_{1+ε}(m) + 2; diameter ≤ twice that.
	bound := 2 * (math.Log(float64(g.M()))/math.Log(1+eps) + 3)
	if float64(res.MaxDiameter) > bound {
		t.Errorf("diameter %d exceeds O(log m / ε) bound %v", res.MaxDiameter, bound)
	}
}

func TestBallCarvingCoversEverything(t *testing.T) {
	g := graph.Disjoint(graph.Cycle(5), graph.Path(4), graph.Path(1))
	res := BallCarving(g, 0.4)
	for v, l := range res.Labels {
		if l < 0 {
			t.Errorf("vertex %d unassigned", v)
		}
	}
}

// Property: carved clusters are connected and labels partition V.
func TestQuickBallCarvingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		g := graph.RandomPlanar(n, 0.6, rng)
		res := BallCarving(g, 0.3)
		groups := make(map[int][]int)
		for v, l := range res.Labels {
			if l < 0 {
				return false
			}
			groups[l] = append(groups[l], v)
		}
		for _, members := range groups {
			sub, _ := g.Induce(members).Materialize()
			if !sub.Connected() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDoubleTorusGenerator(t *testing.T) {
	g := graph.DoubleTorus(4)
	if g.N() != 32 {
		t.Errorf("N = %d, want 32", g.N())
	}
	if g.M() != 2*32+2 {
		t.Errorf("M = %d, want 66", g.M())
	}
	if !g.Connected() {
		t.Error("double torus should be connected")
	}
}
