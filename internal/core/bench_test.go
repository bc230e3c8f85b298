package core_test

import (
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
)

// BenchmarkE15RoundScalingLargest runs the E15 framework pipeline at its
// largest Full-scale size (n = 144).
func BenchmarkE15RoundScalingLargest(b *testing.B) {
	g := graph.Grid(12, 12)
	for i := 0; i < b.N; i++ {
		sol, err := core.Run(g, core.Options{
			Eps: 0.3,
			Cfg: congest.Config{Seed: 2022},
		}, func(cluster *graph.Graph, toOld []int) map[int]int64 {
			out := make(map[int]int64)
			for _, v := range toOld {
				out[v] = 1
			}
			return out
		})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Metrics.Rounds == 0 {
			b.Fatal("no rounds executed")
		}
	}
}
