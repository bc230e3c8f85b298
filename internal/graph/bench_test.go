package graph

import (
	"math/rand"
	"testing"
)

// planarHalf returns the 256-vertex random maximal planar graph used by the
// subgraph benchmarks together with its even-vertex half.
func planarHalf() (*Graph, []int) {
	rng := rand.New(rand.NewSource(7))
	g := RandomMaximalPlanar(256, rng)
	verts := make([]int, 0, g.N()/2)
	for v := 0; v < g.N(); v += 2 {
		verts = append(verts, v)
	}
	return g, verts
}

// BenchmarkInduceView measures zero-copy view construction over half the
// vertices of a 256-vertex maximal planar graph.
func BenchmarkInduceView(b *testing.B) {
	g, verts := planarHalf()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := g.Induce(verts)
		if sub.N() != len(verts) {
			b.Fatal("wrong view size")
		}
	}
}

// BenchmarkInducedSubgraphCopy measures the materializing counterpart of
// BenchmarkInduceView: the same subset, copied out through a Builder by the
// naive reference copy (subgraph_ref_test.go).
func BenchmarkInducedSubgraphCopy(b *testing.B) {
	g, verts := planarHalf()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, _ := inducedSubgraph(g, verts)
		if sub.N() != len(verts) {
			b.Fatal("wrong subgraph size")
		}
	}
}
