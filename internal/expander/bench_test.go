package expander_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"expandergap/internal/congest"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
)

// BenchmarkExpanderDecompose measures the recursive sparse-cut decomposition
// on a 200-vertex random maximal planar graph.
func BenchmarkExpanderDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomMaximalPlanar(200, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expander.Decompose(g, 0.3, expander.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecomposeE4 measures the full recursive decomposition at the E4
// experiment scale — the 16×16 grid at ε = 0.25, seed 2022 — the instance
// TestDecomposeAllocBound pins the allocation bounds on.
func BenchmarkDecomposeE4(b *testing.B) {
	g := graph.Grid(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expander.Decompose(g, 0.25, expander.Options{Seed: 2022}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecomposeStress forces deep recursion with many cuts (ε = 0.999,
// φ = 0.15 on the 16×16 grid), so the per-level subgraph cost dominates: the
// workload most sensitive to view construction versus materialization.
func BenchmarkDecomposeStress(b *testing.B) {
	g := graph.Grid(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expander.Decompose(g, 0.999, expander.Options{Seed: 2022, Phi: 0.15}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPXClustering measures the distributed exponential-shift
// clustering.
func BenchmarkMPXClustering(b *testing.B) {
	g := graph.Grid(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := expander.MPX(g, congest.Config{Seed: int64(i)}, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// decomposeStress returns the parallel-decomposer benchmark at the given
// worker count: a 300-vertex random maximal planar graph under the
// deep-recursion stress setting (ε = 0.999, φ = 0.15), which takes many cuts
// and therefore exposes the recursion's piece-level parallelism. workers = 1
// is the sequential ground-truth recursion.
func decomposeStress(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		g := graph.RandomMaximalPlanar(300, rng)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := expander.Decompose(g, 0.999, expander.Options{Seed: 1, Phi: 0.15, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecomposeSpeedup is the parallel decomposer's speedup gate: it
// fails unless decomposeStress runs at least 1.5× faster at 4 workers than
// at 1 on a host with 4 or more CPUs (1.15× at 2 workers with 2–3 CPUs),
// and skips on 1 CPU, where extra workers measure pool overhead only. Run it
// with -benchtime 100ms or more: a ratio of timings under 100 ms per point
// is noise, so shorter runs report the points and skip the verdict.
func BenchmarkDecomposeSpeedup(b *testing.B) {
	speedupGate(b, decomposeStress)
}

// speedupGate times body at 1 worker and at the gate's worker count for
// this host as sub-benchmarks, and fails below the bound. The second point
// reports the speedup and its bound as metrics, so every run prints them.
func speedupGate(b *testing.B, body func(workers int) func(*testing.B)) {
	workers, want := 2, 1.15
	switch cpus := runtime.NumCPU(); {
	case cpus <= 1:
		b.Skip("1 CPU: extra workers measure pool overhead, not speedup")
	case cpus >= 4:
		workers, want = 4, 1.5
	}
	// Each sub-benchmark's last call is its final, full-length run.
	var elapsed [2]time.Duration
	var nsPerOp [2]float64
	for i, w := range []int{1, workers} {
		ok := b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			body(w)(b)
			elapsed[i], nsPerOp[i] = b.Elapsed(), float64(b.Elapsed())/float64(b.N)
			if i == 1 {
				b.ReportMetric(nsPerOp[0]/nsPerOp[1], "speedup")
				b.ReportMetric(want, "want-speedup")
			}
		})
		if !ok {
			b.Fatalf("the %d-worker point failed", w)
		}
	}
	speedup := nsPerOp[0] / nsPerOp[1]
	b.Logf("speedup at %d workers: %.2fx (want >= %.2fx)", workers, speedup, want)
	if min(elapsed[0], elapsed[1]) < 100*time.Millisecond {
		b.Skip("points timed under 100ms each; rerun with -benchtime 100ms or more for a verdict")
	}
	if speedup < want {
		b.Fatalf("speedup at %d workers is %.2fx, want >= %.2fx", workers, speedup, want)
	}
}
