package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
)

// The Seq/Par pair below runs the E15 framework pipeline at its largest
// Full-scale size (n = 144) with Workers = 0 (canonical sequential loop) and
// Workers = GOMAXPROCS (sharded executor). Outputs and metrics are
// bit-for-bit identical (see the internal/congest equivalence tests); only
// wall-clock may differ. The Par variant embeds the worker count in its
// sub-benchmark name and skips on a single-CPU host, where a pool of 1
// measures dispatch overhead while posing as a parallel run.

// skipUnlessMultiCore skips speedup-flavored benchmarks on single-CPU hosts.
func skipUnlessMultiCore(b *testing.B) int {
	b.Helper()
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		b.Skip("GOMAXPROCS=1: a 1-worker pool measures dispatch overhead, not parallel speedup")
	}
	return procs
}

func benchFrameworkGridWorkers(b *testing.B, side, workers int) {
	b.Helper()
	g := graph.Grid(side, side)
	for i := 0; i < b.N; i++ {
		sol, err := core.Run(g, core.Options{
			Eps: 0.3,
			Cfg: congest.Config{Seed: 2022, Workers: workers},
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

func BenchmarkE15RoundScalingLargestSeq(b *testing.B) { benchFrameworkGridWorkers(b, 12, 0) }
func BenchmarkE15RoundScalingLargestPar(b *testing.B) {
	procs := skipUnlessMultiCore(b)
	b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
		benchFrameworkGridWorkers(b, 12, procs)
	})
}
