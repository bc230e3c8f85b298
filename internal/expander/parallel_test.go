package expander

import (
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

// decomposerSweep is the Workers matrix of the parallel-decomposer suite:
// the sequential ground truth plus pools of 2, 4 and 8.
var decomposerSweep = []int{1, 2, 4, 8}

// TestDecomposeParallelGoldenEquivalence runs the E4/E7 golden instances and
// the served fixtures under every decomposer worker count and demands the
// pinned sequential fingerprints. On these instances every cut decision is
// RNG-independent (no cut below the φ target exists, and SweepCut certifies
// the exact conductance of any candidate), so the per-piece seed derivation
// of the parallel path must not change a single output byte.
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
		{name: "grid16x16-deterministic", g: graph.Grid(16, 16), eps: 0.25,
			opts: Options{Seed: 99, Deterministic: true}, fp: 0x5177aa8a268ecc24},
		{name: "er800-eps0.3", g: er800Fixture(), eps: 0.3,
			opts: Options{Seed: 1}, fp: 0xf33cd0deb4964d85},
	}
	if !testing.Short() {
		cases = append(cases, parCase{name: "planar20k-eps0.3", g: planar20kFixture(), eps: 0.3,
			opts: Options{Seed: 1}, fp: 0x28c61dd0ff3ddc24})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range decomposerSweep {
				opts := tc.opts
				opts.Workers = workers
				d, err := Decompose(tc.g, tc.eps, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if fp := decompositionFingerprint(d); fp != tc.fp {
					t.Errorf("workers=%d: fingerprint = %#x, want %#x (parallel output drifted from the sequential ground truth)",
						workers, fp, tc.fp)
				}
			}
		})
	}
}

// TestDecomposeParallelDeterministicEquivalence pins the strongest claim the
// parallel path makes: under Options.Deterministic the cut search consumes
// no caller randomness at all, so parallel output must be bit-identical to
// sequential on any instance — including the stress setting whose deep
// recursion takes dozens of cuts.
func TestDecomposeParallelDeterministicEquivalence(t *testing.T) {
	g := graph.Grid(16, 16)
	opts := Options{Seed: 2022, Phi: 0.15, Deterministic: true}
	seq, err := Decompose(g, 0.999, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Clusters) < 2 {
		t.Fatalf("stress instance should split (got %d clusters)", len(seq.Clusters))
	}
	want := decompositionFingerprint(seq)
	for _, workers := range decomposerSweep[1:] {
		o := opts
		o.Workers = workers
		d, err := Decompose(g, 0.999, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fp := decompositionFingerprint(d); fp != want {
			t.Errorf("workers=%d: deterministic fingerprint = %#x, want sequential %#x", workers, fp, want)
		}
	}
}

// TestDecomposeParallelWorkerInvariance checks that the randomized parallel
// path is a pure function of (graph, eps, opts) — identical output for every
// Workers > 1 and every scheduling — on instances whose cut decisions DO
// depend on the RNG: the deep-recursion stress grid and a random maximal
// planar graph. It also verifies the (ε, φ) contract on the result.
func TestDecomposeParallelWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		g    *graph.Graph
		eps  float64
		opts Options
	}{
		{name: "grid16x16-phiStress0.15", g: graph.Grid(16, 16), eps: 0.999,
			opts: Options{Seed: 2022, Phi: 0.15}},
		{name: "planar200-eps0.3", g: graph.RandomMaximalPlanar(200, rng), eps: 0.3,
			opts: Options{Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want uint64
			for i, workers := range []int{2, 3, 4, 8} {
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
					if !rep.CutOK || !rep.ConductanceOK || !rep.Connected {
						t.Errorf("workers=%d: contract violated: %+v", workers, rep)
					}
					continue
				}
				if fp != want {
					t.Errorf("workers=%d: fingerprint = %#x, want %#x (parallel output depends on worker count)",
						workers, fp, want)
				}
			}
		})
	}
}

// TestDecomposeParallelRepeatedRuns re-runs the same parallel decomposition
// several times at a fixed worker count: goroutine scheduling varies between
// runs, the output must not.
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
			t.Fatalf("run %d: fingerprint = %#x, want %#x (parallel output is schedule-dependent)", run, fp, want)
		}
	}
}
