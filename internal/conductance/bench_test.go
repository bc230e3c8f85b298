package conductance_test

import (
	"math/rand"
	"testing"

	"expandergap/internal/conductance"
	"expandergap/internal/graph"
)

func BenchmarkExactConductance(b *testing.B) {
	g := graph.Hypercube(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		conductance.ExactConductance(g)
	}
}

// BenchmarkFiedlerScores times one spectral trial of the cut search, 300
// power iterations, on the rebuild fixture's graph (the 20000-vertex random
// planar graph), and reports its cost per CSR slot (directed edge) per
// iteration.
func BenchmarkFiedlerScores(b *testing.B) {
	const iters = 300
	g := graph.RandomPlanarStream(20000, 0.6, rand.New(rand.NewSource(3)), 0)
	f := conductance.NewFiedler(g)
	start, x, y := make([]float64, g.N()), make([]float64, g.N()), make([]float64, g.N())
	f.Start(start, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, start)
		f.Scores(x, y, iters)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters*2*g.M()), "ns/slot-iter")
}
