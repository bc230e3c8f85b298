package separator_test

import (
	"math/rand"
	"testing"

	"expandergap/internal/graph"
	"expandergap/internal/separator"
)

func BenchmarkSpectralSeparator(b *testing.B) {
	g := graph.Grid(16, 16)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		separator.Spectral(g, rng)
	}
}
