package conductance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

// This file pins the power-iteration kernel bit for bit: SpectralGap and
// FiedlerScores must return exactly the float64 bits of the
// closure-per-function implementation they replaced, copied below as the
// reference, and must leave the caller's PRNG at the same position. The
// decomposer's cut decisions and every E-suite figure hang on these bits.

// refSpectralGap is the reference SpectralGap: its own sqrtD, deflate,
// normalize and apply, with a Rayleigh quotient per iteration.
func refSpectralGap(g graph.G, iters int, rng *rand.Rand) float64 {
	n := g.N()
	if n <= 1 {
		return 1
	}
	sqrtD := make([]float64, n)
	for v := 0; v < n; v++ {
		sqrtD[v] = math.Sqrt(float64(g.Degree(v)))
	}
	normalize := func(x []float64) {
		var s float64
		for _, xi := range x {
			s += xi * xi
		}
		s = math.Sqrt(s)
		if s == 0 {
			return
		}
		for i := range x {
			x[i] /= s
		}
	}
	deflate := func(x []float64) {
		var dot, dd float64
		for i := range x {
			dot += x[i] * sqrtD[i]
			dd += sqrtD[i] * sqrtD[i]
		}
		if dd == 0 {
			return
		}
		c := dot / dd
		for i := range x {
			x[i] -= c * sqrtD[i]
		}
	}
	off, to := flatAdj(g)
	apply := func(dst, src []float64) {
		for i := range dst {
			dst[i] = src[i] / 2
		}
		for v := 0; v < n; v++ {
			if off[v+1] == off[v] {
				dst[v] += src[v] / 2
				continue
			}
			for a := off[v]; a < off[v+1]; a++ {
				u := to[a]
				dst[u] += src[v] / (2 * sqrtD[u] * sqrtD[v])
			}
		}
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	deflate(x)
	normalize(x)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		apply(y, x)
		deflate(y)
		var num, den float64
		for i := range y {
			num += y[i] * x[i]
			den += x[i] * x[i]
		}
		if den > 0 {
			lambda = num / den
		}
		copy(x, y)
		normalize(x)
	}
	return 1 - lambda
}

// refFiedlerScores is the reference FiedlerScores: √(deg+1e-12) weights, no
// zero guard in deflate, and normalization of y before the copy.
func refFiedlerScores(g graph.G, iters int, rng *rand.Rand) []float64 {
	n := g.N()
	scores := make([]float64, n)
	if n <= 2 {
		for i := range scores {
			scores[i] = float64(i)
		}
		return scores
	}
	sqrtD := make([]float64, n)
	for v := 0; v < n; v++ {
		sqrtD[v] = math.Sqrt(float64(g.Degree(v)) + 1e-12)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	deflate := func(v []float64) {
		var dot, dd float64
		for i := range v {
			dot += v[i] * sqrtD[i]
			dd += sqrtD[i] * sqrtD[i]
		}
		c := dot / dd
		for i := range v {
			v[i] -= c * sqrtD[i]
		}
	}
	normalize := func(v []float64) {
		var s float64
		for _, vi := range v {
			s += vi * vi
		}
		s = math.Sqrt(s)
		if s == 0 {
			return
		}
		for i := range v {
			v[i] /= s
		}
	}
	off, to := flatAdj(g)
	apply := func(dst, src []float64) {
		for i := range dst {
			dst[i] = src[i] / 2
		}
		for v := 0; v < n; v++ {
			if off[v+1] == off[v] {
				dst[v] += src[v] / 2
				continue
			}
			for a := off[v]; a < off[v+1]; a++ {
				u := to[a]
				dst[u] += src[v] / (2 * sqrtD[u] * sqrtD[v])
			}
		}
	}
	deflate(x)
	normalize(x)
	for it := 0; it < iters; it++ {
		apply(y, x)
		deflate(y)
		normalize(y)
		copy(x, y)
	}
	for v := 0; v < n; v++ {
		scores[v] = x[v] / sqrtD[v]
	}
	return scores
}

// hiddenCSR hides the AdjacencyCSR fast path, so flatAdj copies the
// adjacency through ForEachNeighbor.
type hiddenCSR struct{ graph.G }

// kernelPinGraphs covers the kernel's branches: regular and irregular
// degrees, isolated vertices (the degree-0 self-loop branch and the 1e-12
// weight), an edgeless graph (SpectralGap's zero-norm deflation guard),
// graphs of 1–3 vertices (the early returns, which draw nothing), a view
// whose filter dropped edges, a G without a CSR, and the two planar classes
// the decomposer is timed on: the rebuild fixture's generator at 2000
// vertices and the φ-stress maximal planar graph.
func kernelPinGraphs() []struct {
	name string
	g    graph.G
} {
	base := graph.Grid(12, 12)
	verts := make([]int, 0, 100)
	for v := 0; v < base.N(); v++ {
		if v%7 != 3 {
			verts = append(verts, v)
		}
	}
	drop := func(ei int) bool { return ei%5 == 1 }
	return []struct {
		name string
		g    graph.G
	}{
		{"grid10x10", graph.Grid(10, 10)},
		{"path50", graph.Path(50)},
		{"complete16", graph.Complete(16)},
		{"er800", graph.ErdosRenyiStream(800, 6.0/800, 11, 0)},
		{"er300-isolated", graph.ErdosRenyiStream(300, 1.5/300, 5, 0)},
		{"planar2000", graph.RandomPlanarStream(2000, 0.6, rand.New(rand.NewSource(3)), 0)},
		{"maxplanar300", graph.RandomMaximalPlanar(300, rand.New(rand.NewSource(7)))},
		{"edgeless20", graph.NewBuilder(20).Graph()},
		{"filtered-view", base.InduceFiltered(verts, drop)},
		{"no-csr-grid6x6", hiddenCSR{graph.Grid(6, 6)}},
		{"single", graph.Path(1)},
		{"pair", graph.Path(2)},
		{"triangle", graph.Cycle(3)},
	}
}

func TestPowerIterationKernelPinned(t *testing.T) {
	for _, tc := range kernelPinGraphs() {
		for _, iters := range []int{0, 1, 300} {
			for _, seed := range []int64{1, 42, 2022} {
				name := fmt.Sprintf("%s/iters=%d/seed=%d", tc.name, iters, seed)
				t.Run(name, func(t *testing.T) {
					got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					if g, w := SpectralGap(tc.g, iters, got), refSpectralGap(tc.g, iters, want); math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("SpectralGap = %v (%#x), reference %v (%#x)", g, math.Float64bits(g), w, math.Float64bits(w))
					}
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("PRNG after SpectralGap draws %d, reference %d", g, w)
					}
					gs, ws := FiedlerScores(tc.g, iters, got), refFiedlerScores(tc.g, iters, want)
					if len(gs) != len(ws) {
						t.Fatalf("FiedlerScores has %d scores, reference %d", len(gs), len(ws))
					}
					for v := range gs {
						if math.Float64bits(gs[v]) != math.Float64bits(ws[v]) {
							t.Fatalf("FiedlerScores[%d] = %v, reference %v", v, gs[v], ws[v])
						}
					}
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("PRNG after FiedlerScores draws %d, reference %d", g, w)
					}
				})
			}
		}
	}
}
