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

// BenchmarkDiameterOf measures the exact diameter on two of the benchmark
// fixtures, built with the same generator calls: er800 (G(n, p) with mean
// degree 6, the serve smoke graph) and planar20k (a random planar graph).
func BenchmarkDiameterOf(b *testing.B) {
	for _, bc := range []struct {
		name string
		gen  func() *Graph
	}{
		{"er800", func() *Graph { return ErdosRenyiStream(800, 6.0/800, 11, 0) }},
		{"planar20k", func() *Graph { return RandomPlanarStream(20000, 0.6, rand.New(rand.NewSource(3)), 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := bc.gen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if DiameterOf(g) <= 0 {
					b.Fatal("non-positive diameter")
				}
			}
		})
	}
}
