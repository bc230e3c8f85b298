package expander

import (
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

// qualityRow is one piece of the cut-search quality oracle and the φ its
// search aims at.
type qualityRow struct {
	name string
	g    graph.G
	phi  float64
}

// qualityRows returns the oracle's table: the planar, grid and torus
// families at the φ-stress target 0.15, two hypercubes at 0.3, the rebuild
// fixture's generator at 2000 vertices at 0.006, and the 798-vertex cluster
// of the er800 fixture at the φ it is served at and at 0.3.
func qualityRows(t *testing.T) []qualityRow {
	t.Helper()
	maxPlanar := func(n int) graph.G { return graph.RandomMaximalPlanar(n, rand.New(rand.NewSource(2022))) }
	er800 := er800Fixture()
	d, err := Decompose(er800, 0.3, Options{Seed: 1})
	if err != nil {
		t.Fatalf("Decompose(er800): %v", err)
	}
	var cluster []int
	for _, c := range d.Clusters {
		if len(c) > len(cluster) {
			cluster = c
		}
	}
	if len(cluster) != 798 {
		t.Fatalf("er800's largest cluster has %d vertices, want 798", len(cluster))
	}
	er798 := er800.Induce(cluster)
	return []qualityRow{
		{"maxplanar64", maxPlanar(64), 0.15},
		{"maxplanar144", maxPlanar(144), 0.15},
		{"maxplanar256", maxPlanar(256), 0.15},
		{"torus8x8", graph.Torus(8, 8), 0.15},
		{"torus12x12", graph.Torus(12, 12), 0.15},
		{"grid16x16", graph.Grid(16, 16), 0.15},
		{"grid32x32", graph.Grid(32, 32), 0.15},
		{"trigrid12x12", graph.TriangulatedGrid(12, 12), 0.15},
		{"trigrid16x16", graph.TriangulatedGrid(16, 16), 0.15},
		{"hypercube5", graph.Hypercube(5), 0.3},
		{"hypercube6", graph.Hypercube(6), 0.3},
		{"planar2k", graph.RandomPlanarStream(2000, 0.6, rand.New(rand.NewSource(3)), 0), 0.006},
		{"er800-cluster798-served", er798, d.Phi},
		{"er800-cluster798", er798, 0.3},
	}
}

// TestCutSearchQualityMatchesPowerIteration is the quality oracle of the
// cut search's filtered trials. On every row, over seeds 1–60, the search
// must find a cut below φ at least as often as the same search with the 300
// power iterations it replaced (refBestSparseCut with powerTrial), and on
// planar2k its mean best conductance may be at most 5% above the
// reference's. A row on which the search finds a cut on every seed cannot
// fail the count, so only planar2k's mean needs the reference there. The
// rows run in parallel.
func TestCutSearchQualityMatchesPowerIteration(t *testing.T) {
	const seeds = 60
	for _, row := range qualityRows(t) {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			found := 0
			var sum float64
			for seed := int64(1); seed <= seeds; seed++ {
				_, phi := bestSparseCut(row.g, row.phi, rand.New(rand.NewSource(seed)))
				if phi < row.phi {
					found++
				}
				sum += phi
			}
			t.Logf("φ %.4g: a cut below φ on %d of %d seeds, mean best Φ %.4f", row.phi, found, seeds, sum/seeds)
			planar2k := row.name == "planar2k"
			if found == seeds && !planar2k {
				return
			}
			refFound := 0
			var refSum float64
			for seed := int64(1); seed <= seeds; seed++ {
				_, phi := refBestSparseCut(row.g, powerTrial, rand.New(rand.NewSource(seed)))
				if phi < row.phi {
					refFound++
				}
				refSum += phi
			}
			t.Logf("reference: a cut below φ on %d of %d seeds, mean best Φ %.4f", refFound, seeds, refSum/seeds)
			if found < refFound {
				t.Errorf("found a cut below φ %.4g on %d of %d seeds, the power-iteration reference on %d", row.phi, found, seeds, refFound)
			}
			if planar2k && sum > 1.05*refSum {
				t.Errorf("mean best Φ %.4f, more than 5%% above the reference's %.4f", sum/seeds, refSum/seeds)
			}
		})
	}
}
