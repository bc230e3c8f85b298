package conductance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"expandergap/internal/graph"
)

// refExactConductance is the reference exhaustive enumeration: every mask
// over vertices 0..n-2 in increasing order, each cut's volume summed over its
// vertices and its size counted over every edge.
func refExactConductance(g graph.G) float64 {
	n := g.N()
	if n > MaxExactN {
		panic(fmt.Sprintf("conductance: ExactConductance limited to n <= %d, got %d", MaxExactN, n))
	}
	if n <= 1 {
		return 0
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	totalVol := 2 * g.M()
	edges := graph.EdgesOf(g)
	best := math.Inf(1)
	for mask := 1; mask < 1<<(n-1); mask++ {
		volS := 0
		for v := 0; v < n-1; v++ {
			if mask&(1<<v) != 0 {
				volS += deg[v]
			}
		}
		cut := 0
		for _, e := range edges {
			inU := e.U < n-1 && mask&(1<<e.U) != 0
			inV := e.V < n-1 && mask&(1<<e.V) != 0
			if inU != inV {
				cut++
			}
		}
		minVol := volS
		if rest := totalVol - volS; rest < minVol {
			minVol = rest
		}
		var phi float64
		switch {
		case minVol == 0 && cut == 0:
			phi = 0
		case minVol == 0:
			phi = math.Inf(1)
		default:
			phi = float64(cut) / float64(minVol)
		}
		if phi < best {
			best = phi
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// randomSmallGraph returns a random graph on n vertices: a random spanning
// tree when connected is set, plus each other pair with probability p.
func randomSmallGraph(n int, p float64, connected bool, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; connected && v < n; v++ {
		b.AddEdge(rng.Intn(v), v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Graph()
}

// TestExactConductancePinned compares ExactConductance with the reference
// enumeration to the bit on random graphs of 2–22 vertices (connected or
// not, sparse to dense) and on the edge cases of its conventions.
func TestExactConductancePinned(t *testing.T) {
	check := func(name string, g graph.G) float64 {
		t.Helper()
		got, want := ExactConductance(g), refExactConductance(g)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s (n=%d m=%d): Φ = %v, reference %v", name, g.N(), g.M(), got, want)
		}
		return got
	}
	rng := rand.New(rand.NewSource(20))
	for n := 2; n <= MaxExactN; n++ {
		count := 60
		switch {
		case n > 20:
			count = 1
		case n > 16:
			count = 3
		}
		for i := 0; i < count; i++ {
			p := rng.Float64() * rng.Float64()
			check(fmt.Sprintf("random n=%d #%d", n, i), randomSmallGraph(n, p, i%3 != 0, rng))
		}
	}

	empty := graph.NewBuilder(0).Graph()
	grid := graph.Grid(5, 5)
	cases := []struct {
		name string
		g    graph.G
		want float64 // the convention or known value; -1 checks the bits only
	}{
		{"n=0", empty, 0},
		{"n=1", graph.Path(1), 0},
		{"n=2 edge", graph.Path(2), 1},
		{"n=2 edgeless", graph.NewBuilder(2).Graph(), 0},
		{"edgeless", graph.NewBuilder(7).Graph(), 0},
		{"isolated vertices", graph.Disjoint(graph.Cycle(5), graph.NewBuilder(2).Graph()), 0},
		{"isolated last vertex", graph.Disjoint(graph.Complete(4), graph.Path(1)), 0},
		{"disconnected", graph.Disjoint(graph.Complete(5), graph.Cycle(6)), 0},
		{"grid2x11", graph.Grid(2, 11), 1.0 / 14},
		{"complete22", graph.Complete(22), 11.0 / 21},
		{"filtered view", grid.InduceFiltered([]int{0, 1, 2, 5, 6, 7, 10, 11, 12, 13, 17, 18, 22}, func(ei int) bool { return ei%5 == 1 }), -1},
	}
	for _, tc := range cases {
		if got := check(tc.name, tc.g); tc.want >= 0 && got != tc.want {
			t.Errorf("%s: Φ = %v, want %v", tc.name, got, tc.want)
		}
	}
}
