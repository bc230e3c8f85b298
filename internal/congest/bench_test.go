package congest_test

import (
	"testing"

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
