package conductance

import (
	"math"
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

// filterScores runs one Filter trial on g at phi from a start vector drawn
// from a PRNG seeded with seed.
func filterScores(g graph.G, phi float64, seed int64) []float64 {
	n := g.N()
	f := NewFiedler(g)
	v := make([]float64, 3*n)
	f.Start(v[:n], rand.New(rand.NewSource(seed)))
	return f.Filter(v[:n], v[n:2*n], v[2*n:], phi)
}

// TestFilterCutoffAndProducts pins the filter's cut-off c = 1 − 2φ and its
// clamp to [1/4, 1] (a φ of 1/2 or more, which leaves no band to damp, a
// φ ≤ 0 and a NaN included), and the product count: 60 on the pieces the
// cut search was measured on, more below φ ≈ 10⁻³ on large pieces, and
// never more than 300.
func TestFilterCutoffAndProducts(t *testing.T) {
	for _, tc := range []struct{ phi, c float64 }{
		{0.005, 0.99}, {0.15, 0.7}, {0.3, 0.4}, {0.375, 0.25}, {0.5, 0.25}, {0.9, 0.25},
		{1, 0.25}, {0, 1}, {-0.2, 1}, {math.NaN(), 0.25}, {math.Inf(1), 0.25}, {math.Inf(-1), 1},
	} {
		if c := filterCutoff(tc.phi); math.Abs(c-tc.c) > 1e-15 {
			t.Errorf("filterCutoff(%v) = %v, want %v", tc.phi, c, tc.c)
		}
	}
	for _, tc := range []struct {
		n    int
		phi  float64
		want int
	}{
		{20000, 0.00495, 60}, // planar20k at ε 0.3
		{2000, 0.006, 60},
		{798, 0.0066, 60}, // er800's largest cluster at ε 0.3
		{256, 0.15, 60},
		{64, 0.9, 60},
		{3, 0.00495, 60},
		{20000, 0.001, 90},
		{1000, 0.001, 66},
		{20000, 0.0022, 61},
		{20000, 1e-6, 300},
		{20000, 0, 300},
	} {
		if k := filterProducts(tc.n, filterCutoff(tc.phi)); k != tc.want {
			t.Errorf("filterProducts(%d, φ %v) = %d, want %d", tc.n, tc.phi, k, tc.want)
		}
	}
}

// TestFilterScoresFinite runs the filter across the range of φ, the clamped
// and the tiny ones included, on graphs without a CSR fast path, with
// isolated vertices and of 1–3 vertices: every score is finite, and graphs
// of at most 2 vertices score each vertex by its ID, as FiedlerScores does.
func TestFilterScoresFinite(t *testing.T) {
	for _, g := range []graph.G{
		graph.Grid(12, 12), graph.Hypercube(6), hiddenCSR{graph.Grid(6, 6)},
		graph.ErdosRenyiStream(300, 1.5/300, 5, 0), graph.NewBuilder(20).Graph(),
		graph.Path(1), graph.Path(2), graph.Cycle(3),
	} {
		for _, phi := range []float64{1e-12, 1e-4, 0.00495, 0.15, 0.3, 0.5, 0.75, 1, 3, 0, -1, math.NaN()} {
			scores := filterScores(g, phi, 1)
			if len(scores) != g.N() {
				t.Fatalf("n=%d φ %v: %d scores", g.N(), phi, len(scores))
			}
			for v, s := range scores {
				if math.IsNaN(s) || math.IsInf(s, 0) {
					t.Fatalf("n=%d φ %v: score[%d] = %v", g.N(), phi, v, s)
				}
				if g.N() <= 2 && s != float64(v) {
					t.Fatalf("n=%d: score[%d] = %v, want the ID", g.N(), v, s)
				}
			}
		}
	}
}

// gridDumbbell is two side×side grids joined by one edge between corners.
func gridDumbbell(side int) *graph.Graph {
	half := side * side
	b := graph.NewBuilder(2 * half)
	for off := 0; off < 2*half; off += half {
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				v := off + r*side + c
				if c+1 < side {
					b.AddEdge(v, v+1)
				}
				if r+1 < side {
					b.AddEdge(v, v+side)
				}
			}
		}
	}
	b.AddEdge(half-1, half)
	return b.Graph()
}

// TestFilterSweepFindsBottleneck checks that a filtered trial's sweep finds
// the sparsest cut of graphs with one clear bottleneck: the bridge of the
// barbell (Φ = 1/7) and that of two 6×6 grids joined by one edge
// (Φ = 1/121), from five random starts each.
func TestFilterSweepFindsBottleneck(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := barbell()
		if _, phi := SweepCut(g, filterScores(g, 0.2, seed)); math.Abs(phi-1.0/7) > 1e-12 {
			t.Errorf("barbell seed %d: sweep Φ = %v, want 1/7", seed, phi)
		}
		d := gridDumbbell(6)
		if _, phi := SweepCut(d, filterScores(d, 0.02, seed)); math.Abs(phi-1.0/121) > 1e-12 {
			t.Errorf("grid dumbbell seed %d: sweep Φ = %v, want 1/121", seed, phi)
		}
	}
}
