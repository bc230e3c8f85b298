package expander

import (
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

// decomposerSweep is the Workers matrix of the decomposer suite: no pool
// (0 and 1), and pools of 2, 3, 4 and 8.
var decomposerSweep = []int{0, 1, 2, 3, 4, 8}

// TestDecomposeParallelGoldenEquivalence runs the golden instances and the
// served fixtures at pool sizes 1, 2, 4 and 8 and demands their pinned
// fingerprints (TestDecomposeGolden), including the stress grid, whose
// recursion takes dozens of randomized cuts.
func TestDecomposeParallelGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	base := graph.RandomPlanar(36, 0.7, rng)
	type parCase struct {
		name string
		g    *graph.Graph
		eps  float64
		opts Options
		fp   uint64
	}
	cases := []parCase{
		{name: "grid16x16-eps0.25", g: graph.Grid(16, 16), eps: 0.25,
			opts: Options{Seed: 2022}, fp: 0x5177aa8a268ecc24},
		{name: "trigrid12x12-eps0.25", g: graph.TriangulatedGrid(12, 12), eps: 0.25,
			opts: Options{Seed: 2022}, fp: 0xd2ab3d7ee20ed424},
		{name: "e7planar36-w10-eps0.3", g: graph.WithRandomWeights(base, 10, rng), eps: 0.3,
			opts: Options{Seed: 2022}, fp: 0x6bc5cb0cea2dee24},
		{name: "grid16x16-phiStress0.15", g: graph.Grid(16, 16), eps: 0.999,
			opts: Options{Seed: 2022, Phi: 0.15}, fp: 0xed541878b61d1101},
		{name: "er800-eps0.3", g: er800Fixture(), eps: 0.3,
			opts: Options{Seed: 1}, fp: 0xf33cd0deb4964d85},
	}
	if !testing.Short() {
		cases = append(cases, parCase{name: "planar20k-eps0.3", g: planar20kFixture(), eps: 0.3,
			opts: Options{Seed: 1}, fp: 0x28c61dd0ff3ddc24})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				opts := tc.opts
				opts.Workers = workers
				d, err := Decompose(tc.g, tc.eps, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if fp := decompositionFingerprint(d); fp != tc.fp {
					t.Errorf("workers=%d: fingerprint = %#x, want %#x", workers, fp, tc.fp)
				}
			}
		})
	}
}

// TestDecomposeParallelWorkerInvariance checks that Workers only sizes the
// pool: the output is a pure function of (graph, eps, the other options),
// the same at every entry of decomposerSweep, on instances whose cuts depend
// on the PRNG — the deep-recursion stress grid, a random maximal planar
// graph, and the speedup gate's workload (bench_test.go). It also verifies
// the (ε, φ) contract on each result.
func TestDecomposeParallelWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		g    *graph.Graph
		eps  float64
		opts Options
		// estimateBelowPhi marks an instance whose clusters over
		// conductance.MaxExactN vertices get a Cheeger estimate below φ from
		// Verify (0.029 at φ 0.15 on maxplanar300), so ConductanceOK is not
		// asserted there.
		estimateBelowPhi bool
	}{
		{name: "grid16x16-phiStress0.15", g: graph.Grid(16, 16), eps: 0.999,
			opts: Options{Seed: 2022, Phi: 0.15}},
		{name: "planar200-eps0.3", g: graph.RandomMaximalPlanar(200, rng), eps: 0.3,
			opts: Options{Seed: 1}},
		{name: "maxplanar300-phiStress0.15", g: graph.RandomMaximalPlanar(300, rand.New(rand.NewSource(1))), eps: 0.999,
			opts: Options{Seed: 1, Phi: 0.15}, estimateBelowPhi: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want uint64
			for i, workers := range decomposerSweep {
				opts := tc.opts
				opts.Workers = workers
				d, err := Decompose(tc.g, tc.eps, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				fp := decompositionFingerprint(d)
				if i == 0 {
					want = fp
					rep := d.Verify(tc.g, rand.New(rand.NewSource(7)))
					if !rep.CutOK || !rep.ConductanceOK && !tc.estimateBelowPhi || !rep.Connected {
						t.Errorf("workers=%d: contract violated: %+v", workers, rep)
					}
					continue
				}
				if fp != want {
					t.Errorf("workers=%d: fingerprint = %#x, want %#x (output depends on the worker count)",
						workers, fp, want)
				}
			}
		})
	}
}

// TestDecomposeParallelRepeatedRuns re-runs the same decomposition several
// times on a pool of 4: goroutine scheduling varies between runs, the output
// must not.
func TestDecomposeParallelRepeatedRuns(t *testing.T) {
	g := graph.Grid(16, 16)
	opts := Options{Seed: 2022, Phi: 0.15, Workers: 4}
	var want uint64
	for run := 0; run < 5; run++ {
		d, err := Decompose(g, 0.999, opts)
		if err != nil {
			t.Fatal(err)
		}
		fp := decompositionFingerprint(d)
		if run == 0 {
			want = fp
			continue
		}
		if fp != want {
			t.Fatalf("run %d: fingerprint = %#x, want %#x (output is schedule-dependent)", run, fp, want)
		}
	}
}
