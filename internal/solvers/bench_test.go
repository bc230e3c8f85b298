package solvers_test

import (
	"math/rand"
	"testing"

	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

func BenchmarkBlossomMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomMaximalPlanar(150, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solvers.MaximumMatching(g)
	}
}

func BenchmarkExactMaxIS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomMaximalPlanar(40, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solvers.MaximumIndependentSet(g)
	}
}
