package congest_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// waveHandler builds the benchmark flood workload: vertex 0 seeds a wave
// that every vertex forwards once and then halts on.
func waveHandler(v *congest.Vertex) congest.Handler {
	seen := v.ID() == 0
	return congest.RunFuncs{
		InitFn: func(v *congest.Vertex) {
			if seen {
				v.Broadcast(congest.Message{1})
			}
		},
		RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			if !seen && len(recv) > 0 {
				seen = true
				v.Broadcast(congest.Message{1})
			}
			if seen {
				v.Halt()
			}
		},
	}
}

// BenchmarkSimulatorFlood measures a full flood execution on a 16x16 grid.
// The simulator is built once and re-used across iterations, so the timing
// covers handler construction plus the round loop — not graph/CSR setup.
func BenchmarkSimulatorFlood(b *testing.B) {
	g := graph.Grid(16, 16)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(waveHandler); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorFloodSteadyState isolates the steady-state round loop: a
// non-terminating broadcast workload is started once, warmed up, and then
// each iteration executes exactly one synchronous round. This is the path
// the zero-allocation contract covers (TestSteadyStateZeroAllocs), and it
// must report 0 allocs/op.
func BenchmarkSimulatorFloodSteadyState(b *testing.B) {
	g := graph.Grid(16, 16)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	ex := sim.Start(func(v *congest.Vertex) congest.Handler {
		val := int64(v.ID())
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) { v.BroadcastWords(val) },
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				v.BroadcastWords(val)
			},
		}
	})
	defer ex.Close()
	for i := 0; i < 4; i++ {
		if _, err := ex.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// floodRounds returns the steady-state round-loop benchmark at the given
// worker count: the non-terminating broadcast workload of
// BenchmarkSimulatorFloodSteadyState scaled up to a 48×48 grid, where every
// vertex steps and receives every round — the round loop with maximal
// exploitable parallelism and none of the sparse-frontier effects of a full
// flood run. Each iteration is exactly one synchronized round.
func floodRounds(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		g := graph.Grid(48, 48)
		sim := congest.NewSimulator(g, congest.Config{Seed: 1, Workers: workers})
		ex := sim.Start(func(v *congest.Vertex) congest.Handler {
			val := int64(v.ID())
			return congest.RunFuncs{
				InitFn: func(v *congest.Vertex) { v.BroadcastWords(val) },
				RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
					v.BroadcastWords(val)
				},
			}
		})
		defer ex.Close()
		for i := 0; i < 4; i++ {
			if _, err := ex.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorFloodRoundsSpeedup is the parallel executor's speedup
// gate: it fails unless the 48×48 flood round runs at least 1.5× faster at
// 4 workers than at 1 on a host with 4 or more CPUs (1.15× at 2 workers
// with 2–3 CPUs), and skips on 1 CPU, where extra workers measure pool
// overhead only. Run it with -benchtime 100ms or more: a ratio of timings
// under 100 ms per point is noise, so shorter runs report the points and
// skip the verdict.
func BenchmarkSimulatorFloodRoundsSpeedup(b *testing.B) {
	speedupGate(b, floodRounds)
}

// speedupGate times body at 1 worker and at the gate's worker count for
// this host as sub-benchmarks, and fails below the bound.
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
