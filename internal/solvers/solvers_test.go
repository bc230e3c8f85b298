package solvers

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"expandergap/internal/graph"
)

func TestMaximumIndependentSetKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K5", graph.Complete(5), 1},
		{"C5", graph.Cycle(5), 2},
		{"C6", graph.Cycle(6), 3},
		{"P7", graph.Path(7), 4},
		{"star", graph.Star(6), 6},
		{"K33", graph.CompleteBipartite(3, 3), 3},
		{"grid3x3", graph.Grid(3, 3), 5},
		{"empty", graph.NewBuilder(4).Graph(), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := MaximumIndependentSet(tc.g)
			if !IsIndependentSet(tc.g, set) {
				t.Fatal("result not independent")
			}
			if len(set) != tc.want {
				t.Errorf("|MIS| = %d, want %d", len(set), tc.want)
			}
		})
	}
}

func TestMaximumIndependentSetPanicsAboveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic above limit")
		}
	}()
	MaximumIndependentSet(graph.Path(MaxISExactLimit + 1))
}

func TestGreedyIndependentSetBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{20, 50, 120} {
		g := graph.RandomMaximalPlanar(n, rng)
		set := GreedyIndependentSet(g)
		if !IsIndependentSet(g, set) {
			t.Fatal("greedy result not independent")
		}
		// Planar density < 3, so the guarantee is n/(2*3+1) = n/7.
		if len(set)*7 < n {
			t.Errorf("greedy IS on planar n=%d has size %d < n/7", n, len(set))
		}
	}
}

// Property: exact MIS is at least as large as greedy on small random graphs.
func TestQuickExactBeatsGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(14)
		g := graph.ErdosRenyi(n, 0.3, rng)
		exact := MaximumIndependentSet(g)
		greedy := GreedyIndependentSet(g)
		return IsIndependentSet(g, exact) && IsIndependentSet(g, greedy) &&
			len(exact) >= len(greedy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMaximumWeightIndependentSet(t *testing.T) {
	// Path a-b-c with weights 1, 5, 1: best is {b} (5) not {a,c} (2).
	g := graph.Path(3)
	set := MaximumWeightIndependentSet(g, []int64{1, 5, 1})
	if len(set) != 1 || set[0] != 1 {
		t.Errorf("WMIS = %v, want [1]", set)
	}
	// Equal weights reduce to cardinality.
	g2 := graph.Cycle(6)
	set2 := MaximumWeightIndependentSet(g2, []int64{1, 1, 1, 1, 1, 1})
	if len(set2) != 3 {
		t.Errorf("uniform WMIS size = %d, want 3", len(set2))
	}
}

func TestMaximumMatchingKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"P4", graph.Path(4), 2},
		{"P5", graph.Path(5), 2},
		{"C5", graph.Cycle(5), 2},
		{"C6", graph.Cycle(6), 3},
		{"K4", graph.Complete(4), 2},
		{"K5", graph.Complete(5), 2},
		{"star", graph.Star(5), 1},
		{"K33", graph.CompleteBipartite(3, 3), 3},
		{"petersen", petersen(), 5},
		{"grid4x4", graph.Grid(4, 4), 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mate := MaximumMatching(tc.g)
			if !IsMatching(tc.g, mate) {
				t.Fatal("not a matching")
			}
			if got := MatchingSize(mate); got != tc.want {
				t.Errorf("|MCM| = %d, want %d", got, tc.want)
			}
		})
	}
}

// petersen builds the Petersen graph, a classic blossom stress test (odd
// cycles everywhere, perfect matching exists).
func petersen() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)     // outer C5
		b.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.AddEdge(i, 5+i)         // spokes
	}
	return b.Graph()
}

// Property: blossom matching is maximal and no augmenting structure of
// length 1 or 3 exists (sanity), and it matches the greedy lower bound.
func TestQuickBlossomSanity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := graph.ErdosRenyi(n, 0.3, rng)
		mate := MaximumMatching(g)
		if !IsMatching(g, mate) {
			return false
		}
		// Maximality: no edge with two free endpoints.
		for _, e := range g.Edges() {
			if mate[e.U] == -1 && mate[e.V] == -1 {
				return false
			}
		}
		greedy := GreedyMatching(g)
		return MatchingSize(mate) >= MatchingSize(greedy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Cross-validate blossom against the exact weighted solver with unit
// weights on small graphs.
func TestQuickBlossomVsExactUnitWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := graph.ErdosRenyi(n, 0.4, rng)
		if g.M() > MWMExactLimit {
			return true
		}
		blossom := MatchingSize(MaximumMatching(g))
		exact := MatchingSize(MaximumWeightMatching(g))
		return blossom == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMaximumWeightMatchingKnown(t *testing.T) {
	// Path with weights 1-10-1: take the middle edge only.
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 10)
	b.AddWeightedEdge(2, 3, 1)
	g := b.Graph()
	mate := MaximumWeightMatching(g)
	if w := MatchingWeight(g, mate); w != 10 {
		t.Errorf("MWM weight = %d, want 10", w)
	}
	// Triangle with weights 5,4,3: best single edge 5.
	b2 := graph.NewBuilder(3)
	b2.AddWeightedEdge(0, 1, 5)
	b2.AddWeightedEdge(1, 2, 4)
	b2.AddWeightedEdge(0, 2, 3)
	g2 := b2.Graph()
	if w := MatchingWeight(g2, MaximumWeightMatching(g2)); w != 5 {
		t.Errorf("triangle MWM = %d, want 5", w)
	}
	// Square where two light opposite edges beat one heavy: 3+3 > 5.
	b3 := graph.NewBuilder(4)
	b3.AddWeightedEdge(0, 1, 5)
	b3.AddWeightedEdge(1, 2, 3)
	b3.AddWeightedEdge(2, 3, 5)
	b3.AddWeightedEdge(3, 0, 3)
	g3 := b3.Graph()
	if w := MatchingWeight(g3, MaximumWeightMatching(g3)); w != 10 {
		t.Errorf("square MWM = %d, want 10", w)
	}
}

func TestGreedyMatchingHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := graph.WithRandomWeights(graph.ErdosRenyi(10, 0.4, rng), 50, rng)
		if g.M() > MWMExactLimit {
			continue
		}
		opt := MatchingWeight(g, MaximumWeightMatching(g))
		grd := MatchingWeight(g, GreedyMatching(g))
		if 2*grd < opt {
			t.Errorf("greedy %d below half of optimal %d", grd, opt)
		}
	}
}

func TestScalingMWMQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := graph.WithRandomWeights(graph.ErdosRenyi(9, 0.5, rng), 100, rng)
		if g.M() > MWMExactLimit {
			continue
		}
		opt := MatchingWeight(g, MaximumWeightMatching(g))
		scaled := ScalingMWM(g, 0.1)
		if !IsMatching(g, scaled) {
			t.Fatal("scaling result not a matching")
		}
		got := MatchingWeight(g, scaled)
		if 2*got < opt-1 {
			t.Errorf("scaling MWM %d below half of optimal %d", got, opt)
		}
	}
}

func TestCorrelationScore(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddSignedEdge(0, 1, 1)
	b.AddSignedEdge(1, 2, -1)
	b.AddSignedEdge(0, 2, -1)
	g := b.Graph()
	// {0,1} together, {2} apart: +edge agrees, both -edges agree: 3.
	if s := CorrelationScore(g, []int{0, 0, 1}); s != 3 {
		t.Errorf("score = %d, want 3", s)
	}
	// All together: only the + edge agrees: 1.
	if s := CorrelationScore(g, []int{0, 0, 0}); s != 1 {
		t.Errorf("score = %d, want 1", s)
	}
}

func TestCorrelationClusteringExactOptimal(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddSignedEdge(0, 1, 1)
	b.AddSignedEdge(1, 2, -1)
	b.AddSignedEdge(0, 2, -1)
	g := b.Graph()
	labels := CorrelationClusteringExact(g)
	if s := CorrelationScore(g, labels); s != 3 {
		t.Errorf("exact score = %d, want 3", s)
	}
}

func TestCorrelationClusteringExactRecoversPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, blocks := graph.WithPlantedSigns(graph.Complete(9), 3, 0, rng)
	labels := CorrelationClusteringExact(g)
	// Noise-free planting: optimal score equals total edges; the planted
	// partition is optimal.
	if got, want := CorrelationScore(g, labels), CorrelationScore(g, blocks); got != want {
		t.Errorf("exact %d != planted %d", got, want)
	}
	if CorrelationScore(g, labels) != int64(g.M()) {
		t.Errorf("noise-free optimum should score all %d edges", g.M())
	}
}

// Property: exact >= local search >= min(singletons, one-cluster) and the
// §3.3 bound γ(G) >= |E|/2 holds on connected graphs.
func TestQuickCorrClustBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := graph.WithRandomSigns(graph.RandomMaximalPlanar(max(n, 3), rng), 0.5, rng)
		exact := CorrelationScore(g, CorrelationClusteringExact(g))
		ls := CorrelationScore(g, CorrelationClusteringLocalSearch(g, 10))
		if exact < ls {
			return false
		}
		if 2*exact < int64(g.M()) {
			return false // γ(G) ≥ |E|/2 must hold
		}
		triv := SingletonScore(g)
		if oc := OneClusterScore(g); oc > triv {
			triv = oc
		}
		return exact >= triv && ls >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBestCorrelationClusteringDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	small := graph.WithRandomSigns(graph.Cycle(6), 0.5, rng)
	big := graph.WithRandomSigns(graph.RandomMaximalPlanar(40, rng), 0.6, rng)
	for _, g := range []*graph.Graph{small, big} {
		labels := BestCorrelationClustering(g, rng)
		if len(labels) != g.N() {
			t.Fatalf("labels length %d, want %d", len(labels), g.N())
		}
		if 2*CorrelationScore(g, labels) < int64(g.M()) {
			t.Errorf("clustering below the |E|/2 guarantee")
		}
	}
}

func TestPivotIsValidClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.WithRandomSigns(graph.Grid(5, 5), 0.5, rng)
	labels := CorrelationClusteringPivot(g, rng)
	for v, l := range labels {
		if l < 0 {
			t.Errorf("vertex %d unlabeled", v)
		}
	}
}

func TestLowDiameterDecompositionGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := graph.Grid(12, 12)
	for _, eps := range []float64{0.2, 0.4} {
		res := LowDiameterDecomposition(g, eps, 3, rng)
		if res.MaxDiameter > int(12.0/eps) {
			t.Errorf("eps=%v: diameter %d exceeds O(1/eps) bound", eps, res.MaxDiameter)
		}
		// Clusters must be connected (diameter computed on induced pieces).
		seen := map[int]bool{}
		for _, l := range res.Labels {
			seen[l] = true
		}
		if len(seen) < 2 {
			t.Errorf("eps=%v: decomposition did not split a 12x12 grid", eps)
		}
	}
}

func TestLDDCutScalesWithEps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Grid(16, 16)
	avg := func(eps float64) float64 {
		total := 0
		const trials = 5
		for i := 0; i < trials; i++ {
			total += LowDiameterDecomposition(g, eps, 3, rng).CutEdges
		}
		return float64(total) / trials
	}
	loose, tight := avg(0.6), avg(0.1)
	if tight >= loose {
		t.Errorf("cut should shrink with eps: eps=0.1 gives %v, eps=0.6 gives %v", tight, loose)
	}
}

func TestLDDDegenerate(t *testing.T) {
	empty := graph.NewBuilder(0).Graph()
	rng := rand.New(rand.NewSource(1))
	res := LowDiameterDecomposition(empty, 0.5, 0, rng)
	if len(res.Labels) != 0 || res.CutEdges != 0 {
		t.Error("empty LDD wrong")
	}
	single := graph.Path(1)
	res = LowDiameterDecomposition(single, -1, 0, rng) // eps sanitized
	if len(res.Labels) != 1 {
		t.Error("singleton LDD wrong")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDoubleTorusGenerator(t *testing.T) {
	g := graph.DoubleTorus(4)
	if g.N() != 32 {
		t.Errorf("N = %d, want 32", g.N())
	}
	if g.M() != 2*32+2 {
		t.Errorf("M = %d, want 66", g.M())
	}
	if !g.Connected() {
		t.Error("double torus should be connected")
	}
}

// greedyIndependentSetScan is the earlier GreedyIndependentSet, which scans
// every vertex for each pick (O(n²)); it stays as the oracle of
// TestGreedyIndependentSetMatchesScan.
func greedyIndependentSetScan(g *graph.Graph) []int {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
	}
	remaining := n
	var out []int
	for remaining > 0 {
		// Min-degree alive vertex.
		pick, pickDeg := -1, 1<<30
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < pickDeg {
				pick, pickDeg = v, deg[v]
			}
		}
		out = append(out, pick)
		kill := []int{pick}
		g.ForEachNeighbor(pick, func(u, _ int) {
			if alive[u] {
				kill = append(kill, u)
			}
		})
		for _, v := range kill {
			alive[v] = false
			remaining--
			g.ForEachNeighbor(v, func(u, _ int) {
				if alive[u] {
					deg[u]--
				}
			})
		}
	}
	return out
}

// The bucketed greedy picks the same vertices in the same order as the scan
// it replaced, on random, planar and tie-heavy graphs.
func TestGreedyIndependentSetMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*graph.Graph{
		"empty":     graph.NewBuilder(7).Graph(),
		"K1":        graph.Complete(1),
		"K6":        graph.Complete(6),
		"star":      graph.Star(30),
		"cycle":     graph.Cycle(41),
		"path":      graph.Path(40),
		"grid":      graph.Grid(17, 23),
		"torus":     graph.Torus(12, 12),
		"hypercube": graph.Hypercube(6),
		"K7,9":      graph.CompleteBipartite(7, 9),
		"prism":     graph.Prism(25),
		"wheel":     graph.Wheel(30),
		"disjoint":  graph.Disjoint(graph.Cycle(6), graph.Star(5), graph.Complete(4), graph.Path(3)),
	}
	for i, n := range []int{30, 200, 1000} {
		graphs[fmt.Sprintf("gnp%d", n)] = graph.ErdosRenyi(n, 6/float64(n), rng)
		graphs[fmt.Sprintf("dense%d", n)] = graph.ErdosRenyi(n/4+2, 0.5, rng)
		graphs[fmt.Sprintf("planar%d", n)] = graph.RandomPlanar(n, 0.6, rng)
		graphs[fmt.Sprintf("maxplanar%d", n)] = graph.RandomMaximalPlanar(n, rng)
		graphs[fmt.Sprintf("tree%d", n)] = graph.RandomTree(n, rng)
		graphs[fmt.Sprintf("pendants%d", i)] = graph.AttachPendantStars(graph.Cycle(n/10+3), []int{0, 1, 2}, 4)
	}
	for name, g := range graphs {
		got, want := GreedyIndependentSet(g), greedyIndependentSetScan(g)
		if !slices.Equal(got, want) {
			t.Errorf("%s: bucketed greedy picked %v, scan %v", name, got, want)
		}
	}
}
