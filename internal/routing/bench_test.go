package routing_test

import (
	"fmt"
	"runtime"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
	"expandergap/internal/routing"
)

// BenchmarkWalkRoutingGrid measures random-walk token routing on an 8x8
// grid.
func BenchmarkWalkRoutingGrid(b *testing.B) {
	g := graph.Grid(8, 8)
	leader := make([]int, g.N())
	tokens := make([][]routing.Token, g.N())
	for v := range tokens {
		tokens[v] = []routing.Token{{A: int64(v)}}
	}
	plan := routing.Plan{
		Cluster:       primitives.Uniform(g.N()),
		Leader:        leader,
		ForwardRounds: 8*g.M()*g.Diameter() + 64,
		Strategy:      routing.RandomWalk,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := routing.Exchange(g, congest.Config{Seed: int64(i)}, plan, tokens, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Undelivered > 0 {
			b.Fatalf("undelivered: %d", res.Undelivered)
		}
	}
}

// The Seq/Par pair below runs E4-style whole-graph walk routing at the E4
// Full-scale size (n = 256) with Workers = 0 (canonical sequential loop) and
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

func benchWalkRoutingWorkers(b *testing.B, side, workers int) {
	b.Helper()
	g := graph.Grid(side, side)
	leader := make([]int, g.N())
	tokens := make([][]routing.Token, g.N())
	for v := range tokens {
		tokens[v] = []routing.Token{{A: int64(v)}}
	}
	plan := routing.Plan{
		Cluster:       primitives.Uniform(g.N()),
		Leader:        leader,
		ForwardRounds: 8*g.M()*g.Diameter() + 64,
		Strategy:      routing.RandomWalk,
	}
	for i := 0; i < b.N; i++ {
		res, _, err := routing.Exchange(g, congest.Config{Seed: int64(i), Workers: workers}, plan, tokens, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Undelivered > 0 {
			b.Fatalf("undelivered: %d", res.Undelivered)
		}
	}
}

func BenchmarkE4WalkRoutingLargestSeq(b *testing.B) { benchWalkRoutingWorkers(b, 16, 0) }
func BenchmarkE4WalkRoutingLargestPar(b *testing.B) {
	procs := skipUnlessMultiCore(b)
	b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
		benchWalkRoutingWorkers(b, 16, procs)
	})
}
