package conductance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"expandergap/internal/graph"
)

// Sparsity, Ψ(S) = |∂(S)| / min(|S|, |V\S|), is the vertex-count analogue
// of conductance that Lemma 2.5's preprocessing moves through. No algorithm
// or experiment needs it, so it lives here: brute-force Ψ(G) is the
// reference that checks ExactConductance through the sandwich
// Φ ≤ Ψ ≤ Δ·Φ.

// cutSparsity returns Ψ(S), or 0 for a trivial cut.
func cutSparsity(g graph.G, s map[int]bool) float64 {
	inCount := 0
	for v := 0; v < g.N(); v++ {
		if s[v] {
			inCount++
		}
	}
	if inCount == 0 || inCount == g.N() {
		return 0
	}
	return float64(cutSize(g, s)) / float64(min(inCount, g.N()-inCount))
}

// exactSparsity returns Ψ(G), the minimum of cutSparsity over the non-trivial
// cuts that keep vertex n-1 outside S. Disconnected graphs have sparsity 0;
// it panics for n > MaxExactN.
func exactSparsity(g *graph.Graph) float64 {
	n := g.N()
	if n > MaxExactN {
		panic(fmt.Sprintf("conductance: exactSparsity limited to n <= %d, got %d", MaxExactN, n))
	}
	if n <= 1 {
		return 0
	}
	best := math.Inf(1)
	for mask := 1; mask < 1<<(n-1); mask++ {
		s := make(map[int]bool)
		for v := 0; v < n-1; v++ {
			if mask&(1<<v) != 0 {
				s[v] = true
			}
		}
		best = min(best, cutSparsity(g, s))
	}
	return best
}

// sparsityConductanceRelation returns the two ratios Ψ/Φ (must be ≥ 1) and
// Ψ/(Δ·Φ) (must be ≤ 1) of a connected graph, or 0, 0 when Φ = 0.
func sparsityConductanceRelation(g *graph.Graph) (lower, upper float64) {
	phi := ExactConductance(g)
	psi := exactSparsity(g)
	if phi == 0 {
		return 0, 0
	}
	d := float64(g.MaxDegree())
	return psi / phi, psi / (d * phi)
}

func TestCutSparsity(t *testing.T) {
	g := graph.Path(4)
	s := map[int]bool{0: true, 1: true}
	if got := cutSparsity(g, s); got != 0.5 {
		t.Errorf("path middle cut sparsity = %v, want 0.5", got)
	}
	if got := cutSparsity(g, map[int]bool{}); got != 0 {
		t.Errorf("empty cut sparsity = %v, want 0", got)
	}
}

func TestExactSparsityKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"P4", graph.Path(4), 0.5},         // middle cut 1 / min(2,2)
		{"C6", graph.Cycle(6), 2.0 / 3.0},  // antipodal 2/3
		{"K4", graph.Complete(4), 2.0},     // balanced 2|2 split: 4/2
		{"star", graph.Star(4), 1.0 / 1.0}, // one leaf: 1/1
		{"disconnected", graph.Disjoint(graph.Path(2), graph.Path(2)), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exactSparsity(tc.g); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Ψ = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestExactSparsityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic above MaxExactN")
		}
	}()
	exactSparsity(graph.Path(MaxExactN + 1))
}

// Property: Φ ≤ Ψ ≤ Δ·Φ on connected graphs ([20, Lemma C.2] direction used
// by Lemma 2.5).
func TestQuickSparsityConductanceSandwich(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := graph.ErdosRenyi(n, 0.6, rng)
		if !g.Connected() || g.M() == 0 {
			return true
		}
		lower, upper := sparsityConductanceRelation(g)
		return lower >= 1-1e-9 && upper <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSparsityRelationDegenerate(t *testing.T) {
	lower, upper := sparsityConductanceRelation(graph.Disjoint(graph.Path(2), graph.Path(2)))
	if lower != 0 || upper != 0 {
		t.Error("disconnected relation should be zero")
	}
}
