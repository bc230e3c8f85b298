package conductance_test

import (
	"math/rand"
	"testing"

	"expandergap/internal/conductance"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
)

func BenchmarkExactConductance(b *testing.B) {
	g := graph.Hypercube(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		conductance.ExactConductance(g)
	}
}

// BenchmarkFiedlerScores times FiedlerScores' 300 power iterations, which
// EstimateBounds and separator.Spectral run and the cut search's quality
// test takes as its reference, on the rebuild fixture's graph (the
// 20000-vertex random planar graph), and reports their cost per CSR slot
// (directed edge) per iteration, building the kernel and drawing the start
// vector included.
func BenchmarkFiedlerScores(b *testing.B) {
	const iters = 300
	g := graph.RandomPlanarStream(20000, 0.6, rand.New(rand.NewSource(3)), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conductance.FiedlerScores(g, iters, rand.New(rand.NewSource(1)))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters*2*g.M()), "ns/slot-iter")
}

// BenchmarkFiedlerFilter times one spectral trial of the cut search, the
// Chebyshev filter at the φ Decompose aims at on the rebuild fixture's graph
// at ε 0.3, and reports its cost per CSR slot per product and the number of
// products.
func BenchmarkFiedlerFilter(b *testing.B) {
	g := graph.RandomPlanarStream(20000, 0.6, rand.New(rand.NewSource(3)), 0)
	phi := expander.PhiTarget(0.3, g.M())
	products := conductance.FilterProducts(g.N(), phi)
	f := conductance.NewFiedler(g)
	n := g.N()
	start, v := make([]float64, n), make([]float64, 3*n)
	f.Start(start, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, start)
		f.Filter(v[:n], v[n:2*n], v[2*n:], phi)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*products*2*g.M()), "ns/slot-product")
	b.ReportMetric(float64(products), "products")
}
