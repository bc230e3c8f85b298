package conductance_test

import (
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
