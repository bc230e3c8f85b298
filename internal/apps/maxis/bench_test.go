package maxis_test

import (
	"testing"

	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// BenchmarkLubyMIS measures the classic randomized MIS on a 12x12 grid.
func BenchmarkLubyMIS(b *testing.B) {
	g := graph.Grid(12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := maxis.LubyMIS(g, congest.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameworkMaxISEndToEnd(b *testing.B) {
	g := graph.Grid(7, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := maxis.Approximate(g, maxis.Options{Eps: 0.25, Cfg: congest.Config{Seed: int64(i)}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Set) == 0 {
			b.Fatal("empty independent set")
		}
	}
}
