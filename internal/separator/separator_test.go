package separator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"expandergap/internal/graph"
)

func TestBalancedRange(t *testing.T) {
	cases := []struct{ n, lo, hi int }{
		{3, 1, 2},
		{6, 2, 4},
		{7, 3, 4},
		{9, 3, 6},
		{10, 4, 6},
	}
	for _, tc := range cases {
		lo, hi := balancedRange(tc.n)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("balancedRange(%d) = (%d,%d), want (%d,%d)", tc.n, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestSpectralSeparatorGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Grid(8, 8)
	sep := Spectral(g, rng)
	if !sep.Balanced(g.N()) {
		t.Fatalf("spectral separator unbalanced: |S| = %d of %d", len(sep.S), g.N())
	}
	// An 8x8 grid has a balanced column cut of 8 edges; the spectral sweep
	// should find something close.
	if sep.CutSize > 12 {
		t.Errorf("spectral cut on 8x8 grid = %d, expected <= 12", sep.CutSize)
	}
}

func TestBFSOrderSeparator(t *testing.T) {
	g := graph.Path(9)
	sep := BFSOrder(g, 0)
	if !sep.Balanced(g.N()) {
		t.Fatalf("BFS separator unbalanced")
	}
	if sep.CutSize != 1 {
		t.Errorf("path separator cut = %d, want 1", sep.CutSize)
	}
}

func TestBFSOrderDisconnected(t *testing.T) {
	g := graph.Disjoint(graph.Path(5), graph.Path(4))
	sep := BFSOrder(g, 0)
	if !sep.Balanced(g.N()) {
		t.Fatal("separator must be balanced even for disconnected input")
	}
	if sep.CutSize > 1 {
		t.Errorf("disconnected separator cut = %d, want <= 1", sep.CutSize)
	}
}

func TestBestSeparatorMatchesBruteForceOnSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range []*graph.Graph{
		graph.Cycle(9),
		graph.Grid(3, 4),
		graph.Complete(7),
		graph.Star(8),
	} {
		opt := BruteForce(g)
		got := Best(g, rng)
		if !got.Balanced(g.N()) || !opt.Balanced(g.N()) {
			t.Fatalf("unbalanced separator on %v", g)
		}
		// Heuristics may be suboptimal but never by more than 2x on these
		// tiny structured instances.
		if got.CutSize > 2*opt.CutSize+1 {
			t.Errorf("%v: heuristic cut %d far from optimal %d", g, got.CutSize, opt.CutSize)
		}
		if opt.CutSize > got.CutSize {
			t.Errorf("%v: brute force (%d) worse than heuristic (%d)?!", g, opt.CutSize, got.CutSize)
		}
	}
}

func TestBruteForceKnownValues(t *testing.T) {
	// C6: balanced cut needs 2 edges.
	if got := BruteForce(graph.Cycle(6)).CutSize; got != 2 {
		t.Errorf("C6 separator = %d, want 2", got)
	}
	// K6: best balanced cut is 2|3 split: 2*4... every 3|3 split cuts 9,
	// 2|4 split cuts 8 and is balanced (min=2 >= 6/3=2).
	if got := BruteForce(graph.Complete(6)).CutSize; got != 8 {
		t.Errorf("K6 separator = %d, want 8", got)
	}
	// P2: single edge.
	if got := BruteForce(graph.Path(2)).CutSize; got != 1 {
		t.Errorf("P2 separator = %d, want 1", got)
	}
}

func TestBruteForcePanics(t *testing.T) {
	for _, n := range []int{1, MaxBruteForceN + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BruteForce(%d-vertex) should panic", n)
				}
			}()
			BruteForce(graph.Path(n))
		}()
	}
}

// Theorem 1.6 empirical check: on planar families the separator quality
// |∂S|/√(Δn) stays below a fixed constant as n grows.
func TestTheorem16PlanarFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const bound = 3.0
	for _, n := range []int{16, 64, 144, 256} {
		side := int(math.Sqrt(float64(n)))
		families := map[string]*graph.Graph{
			"grid":    graph.Grid(side, side),
			"trigrid": graph.TriangulatedGrid(side, side),
			"planar":  graph.RandomMaximalPlanar(n, rng),
			"tree":    graph.RandomTree(n, rng),
		}
		for name, g := range families {
			sep := Best(g, rng)
			if !sep.Balanced(g.N()) {
				t.Fatalf("%s(n=%d): unbalanced", name, n)
			}
			if q := sep.Quality(g); q > bound {
				t.Errorf("%s(n=%d): quality %v exceeds bound %v (cut=%d)", name, n, q, bound, sep.CutSize)
			}
		}
	}
}

// Control: cliques do NOT satisfy the O(√(Δn)) bound with a small constant —
// the ratio grows with n. This confirms the measurement distinguishes
// minor-free from dense families.
func TestTheorem16CliqueControl(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q12 := Best(graph.Complete(12), rng).Quality(graph.Complete(12))
	q24 := Best(graph.Complete(24), rng).Quality(graph.Complete(24))
	if q24 <= q12 {
		t.Errorf("clique separator quality should grow: q12=%v q24=%v", q12, q24)
	}
}

func TestQualityAndWitnessDegenerate(t *testing.T) {
	empty := graph.NewBuilder(0).Graph()
	sep := EdgeSeparator{S: map[int]bool{}}
	if q := sep.Quality(empty); q != 0 {
		t.Errorf("empty quality = %v, want 0", q)
	}
	if w := HighDegreeWitness(empty, 0.5); w != 0 {
		t.Errorf("empty witness = %v, want 0", w)
	}
	if w := HighDegreeWitness(graph.Cycle(4), 0); w != 0 {
		t.Errorf("phi=0 witness = %v, want 0", w)
	}
}

func TestHighDegreeWitness(t *testing.T) {
	// K8 with phi = 2/3 (conductance-ish): Δ = 7, witness = 7/((4/9)*8) ≈ 1.97.
	w := HighDegreeWitness(graph.Complete(8), 2.0/3.0)
	if math.Abs(w-7.0/((4.0/9.0)*8.0)) > 1e-12 {
		t.Errorf("witness = %v", w)
	}
}

// Property: heuristic separators are always balanced and their cut size
// matches a direct recount.
func TestQuickSeparatorConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(12)
		g := graph.ErdosRenyi(n, 0.4, rng)
		sep := Best(g, rng)
		if !sep.Balanced(n) {
			return false
		}
		recount := len(graph.CutEdgesOf(g, sep.S))
		return recount == sep.CutSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: brute force is never beaten by the heuristics.
func TestQuickBruteForceOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(7)
		g := graph.ErdosRenyi(n, 0.5, rng)
		opt := BruteForce(g)
		heur := Best(g, rng)
		return opt.CutSize <= heur.CutSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
