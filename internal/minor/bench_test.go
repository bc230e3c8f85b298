package minor_test

import (
	"math/rand"
	"testing"

	"expandergap/internal/graph"
	"expandergap/internal/minor"
)

func BenchmarkPlanarityTest(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomMaximalPlanar(200, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !minor.IsPlanar(g) {
			b.Fatal("triangulation misclassified")
		}
	}
}
