package expander

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

// decompositionFingerprint hashes the full observable output of Decompose —
// cluster count, per-vertex assignment, and the removed-edge list — with
// FNV-64a. The expected values below were captured from the pre-CSR
// materializing implementation, so these tests pin the view-based recursion
// to be bit-identical to it: same clusters, same IDs, same cut edges, same
// RNG draws. The one exception is marked where it was regenerated.
func decompositionFingerprint(d *Decomposition) uint64 {
	h := fnv.New64a()
	put := func(x int) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(len(d.Clusters))
	for _, id := range d.Assignment {
		put(id)
	}
	put(len(d.Removed))
	for _, e := range d.Removed {
		put(e)
	}
	return h.Sum64()
}

// The bench fixtures, built with the generator calls of bench/fixtures.go.
func er800Fixture() *graph.Graph { return graph.ErdosRenyiStream(800, 6.0/800, 11, 0) }

func planar20kFixture() *graph.Graph {
	return graph.RandomPlanarStream(20000, 0.6, rand.New(rand.NewSource(3)), 0)
}

func TestDecomposeGolden(t *testing.T) {
	type goldenCase struct {
		name     string
		g        *graph.Graph
		eps      float64
		opts     Options
		clusters int
		removed  int
		fp       uint64
	}
	cases := []goldenCase{
		// E4-scale instances (suite.go DecompSizes includes 256 = 16×16 grid
		// and 144 = 12×12 triangulated grid, eps 0.25, seed 2022).
		{
			name: "grid16x16-eps0.25", g: graph.Grid(16, 16), eps: 0.25,
			opts:     Options{Seed: 2022},
			clusters: 1, removed: 0, fp: 0x5177aa8a268ecc24,
		},
		{
			name: "trigrid12x12-eps0.25", g: graph.TriangulatedGrid(12, 12), eps: 0.25,
			opts:     Options{Seed: 2022},
			clusters: 1, removed: 0, fp: 0xd2ab3d7ee20ed424,
		},
		// A stress setting that forces deep recursion and many cuts, so the
		// removed-edge bookkeeping and the cut search are both exercised.
		// Regenerated when the Workers <= 1 recursion, which threaded one
		// PRNG in DFS order, was retired (it gave 0x304dc94e510051b7), and
		// when the cut search's power iterations became the Chebyshev filter
		// (16 clusters, 100 removed edges, 0x7cd50cc24424a73d).
		{
			name: "grid16x16-phiStress0.15", g: graph.Grid(16, 16), eps: 0.999,
			opts:     Options{Seed: 2022, Phi: 0.15},
			clusters: 17, removed: 106, fp: 0xed541878b61d1101,
		},
	}
	// E7-style weighted planar instance (n=36, W=10, eps 0.3).
	rng := rand.New(rand.NewSource(2022))
	base := graph.RandomPlanar(36, 0.7, rng)
	cases = append(cases, goldenCase{
		name: "e7planar36-w10-eps0.3", g: graph.WithRandomWeights(base, 10, rng), eps: 0.3,
		opts:     Options{Seed: 2022},
		clusters: 1, removed: 0, fp: 0x6bc5cb0cea2dee24,
	})
	// The served fixtures at the server's defaults (ε 0.3, seed 1), captured
	// while the cut search still ran its trials one after another.
	cases = append(cases, goldenCase{
		name: "er800-eps0.3", g: er800Fixture(), eps: 0.3,
		opts:     Options{Seed: 1},
		clusters: 3, removed: 0, fp: 0xf33cd0deb4964d85,
	})
	if !testing.Short() {
		cases = append(cases, goldenCase{
			name: "planar20k-eps0.3", g: planar20kFixture(), eps: 0.3,
			opts:     Options{Seed: 1},
			clusters: 1, removed: 0, fp: 0x28c61dd0ff3ddc24,
		})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Decompose(tc.g, tc.eps, tc.opts)
			if err != nil {
				t.Fatalf("Decompose: %v", err)
			}
			if len(d.Clusters) != tc.clusters {
				t.Errorf("clusters = %d, want %d", len(d.Clusters), tc.clusters)
			}
			if len(d.Removed) != tc.removed {
				t.Errorf("removed = %d, want %d", len(d.Removed), tc.removed)
			}
			if fp := decompositionFingerprint(d); fp != tc.fp {
				t.Errorf("fingerprint = %#x, want %#x (output drifted from the pinned implementation)", fp, tc.fp)
			}
		})
	}
}
