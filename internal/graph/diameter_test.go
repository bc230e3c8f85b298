package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// EccentricityOf returns the maximum finite BFS distance from src within its
// connected component.
func EccentricityOf(g G, src int) int {
	dist, _ := BFSOf(g, src)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// diameterAllPairs is the reference diameter: the largest eccentricity over
// a BFS from every vertex.
func diameterAllPairs(g G) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		diam = max(diam, EccentricityOf(g, v))
	}
	return diam
}

// TestDiameterOfMatchesAllPairs pins DiameterOf against the all-pairs
// reference on random graphs (empty, a single vertex, isolated vertices,
// several components), on views carved out of a planar graph, on the
// E-suite's graph families, and on the er800 benchmark fixture.
func TestDiameterOfMatchesAllPairs(t *testing.T) {
	type tc struct {
		name string
		g    G
	}
	cases := []tc{
		{"empty", NewBuilder(0).Graph()},
		{"single", NewBuilder(1).Graph()},
		{"isolated7", NewBuilder(7).Graph()},
		{"path-and-isolated", Disjoint(NewBuilder(3).Graph(), Path(6), NewBuilder(1).Graph())},
		{"two-paths", Disjoint(Path(9), Path(4))},
		{"star-and-cycle", Disjoint(Star(5), Cycle(11))},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		// Mean degree 0–8: the sparse end is mostly disconnected.
		n := rng.Intn(61)
		p := rng.Float64() * 8 / float64(max(n, 1))
		cases = append(cases, tc{fmt.Sprintf("er-%d-n%d", i, n), ErdosRenyi(n, p, rng)})
	}
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(60)
		cases = append(cases, tc{fmt.Sprintf("tree-%d-n%d", i, n), RandomTree(n, rng)})
	}
	planar := RandomPlanar(300, 0.6, rand.New(rand.NewSource(5)))
	for i := 0; i < 40; i++ {
		var verts []int
		keep := 0.2 + 0.7*rng.Float64()
		for v := 0; v < planar.N(); v++ {
			if rng.Float64() < keep {
				verts = append(verts, v)
			}
		}
		cases = append(cases, tc{fmt.Sprintf("planar-view-%d", i), planar.Induce(verts)})
	}
	// The E-suite's families: the planar families of E1–E3 at a few sizes,
	// the spectral table's graphs, and the pendant-star planar graphs.
	for _, n := range []int{16, 64, 144, 400} {
		side := int(math.Sqrt(float64(n)))
		cases = append(cases,
			tc{fmt.Sprintf("grid-%d", n), Grid(side, side)},
			tc{fmt.Sprintf("trigrid-%d", n), TriangulatedGrid(side, side)},
			tc{fmt.Sprintf("maxplanar-%d", n), RandomMaximalPlanar(n, rng)},
			tc{fmt.Sprintf("torus-%d", n), Torus(max(side, 3), max(side, 3))},
			tc{fmt.Sprintf("planar-stars-%d", n), AttachPendantStars(RandomPlanar(n, 0.7, rng), []int{0, n / 4, n / 2}, 4)},
		)
	}
	cases = append(cases,
		tc{"K8", Complete(8)}, tc{"K16", Complete(16)},
		tc{"C12", Cycle(12)}, tc{"C20", Cycle(20)},
		tc{"Q3", Hypercube(3)}, tc{"Q4", Hypercube(4)}, tc{"Q6", Hypercube(6)},
		tc{"grid4x4", Grid(4, 4)}, tc{"grid5x40", Grid(5, 40)},
		tc{"er800", ErdosRenyiStream(800, 6.0/800, 11, 0)},
	)
	for _, c := range cases {
		if got, want := DiameterOf(c.g), diameterAllPairs(c.g); got != want {
			t.Errorf("%s (n=%d, m=%d): DiameterOf = %d, all-pairs = %d", c.name, c.g.N(), c.g.M(), got, want)
		}
	}
}
