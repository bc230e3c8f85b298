package expander

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"expandergap/internal/conductance"
	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

func TestDecomposeContractOnPlanarFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	families := map[string]*graph.Graph{
		"grid8":   graph.Grid(8, 8),
		"trigrid": graph.TriangulatedGrid(6, 6),
		"planar":  graph.RandomMaximalPlanar(80, rng),
		"torus":   graph.Torus(6, 6),
		"tree":    graph.RandomTree(64, rng),
	}
	for name, g := range families {
		for _, eps := range []float64{0.2, 0.4} {
			d, err := Decompose(g, eps, Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rep := d.Verify(g, rng)
			if !rep.CutOK {
				t.Errorf("%s eps=%v: cut fraction %v exceeds eps", name, eps, rep.CutFraction)
			}
			if !rep.Connected {
				t.Errorf("%s eps=%v: disconnected cluster", name, eps)
			}
			if !rep.ConductanceOK && rep.Exact {
				t.Errorf("%s eps=%v: exact conductance %v below phi %v",
					name, eps, rep.MinConductance, d.Phi)
			}
		}
	}
}

func TestDecomposeCoversAllVertices(t *testing.T) {
	g := graph.Grid(5, 5)
	d, err := Decompose(g, 0.3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, g.N())
	for _, c := range d.Clusters {
		for _, v := range c {
			if seen[v] {
				t.Fatalf("vertex %d in two clusters", v)
			}
			seen[v] = true
		}
	}
	for v, s := range seen {
		if !s {
			t.Errorf("vertex %d unassigned", v)
		}
	}
	// Assignment agrees with Clusters.
	for id, c := range d.Clusters {
		for _, v := range c {
			if d.Assignment[v] != id {
				t.Errorf("assignment[%d] = %d, want %d", v, d.Assignment[v], id)
			}
		}
	}
}

func TestDecomposeRemovedEdgesAreExactlyCrossing(t *testing.T) {
	g := graph.Torus(5, 5)
	d, err := Decompose(g, 0.35, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	removedSet := make(map[int]bool)
	for _, ei := range d.Removed {
		removedSet[ei] = true
	}
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		crossing := d.Assignment[e.U] != d.Assignment[e.V]
		if crossing && !removedSet[i] {
			t.Errorf("crossing edge %v not in Removed", e)
		}
		if !crossing && removedSet[i] {
			t.Errorf("intra-cluster edge %v in Removed", e)
		}
	}
}

func TestDecomposeExpanderStaysWhole(t *testing.T) {
	// A clique is already an expander: no edges should be removed for any
	// reasonable eps, and there should be exactly one cluster.
	g := graph.Complete(12)
	d, err := Decompose(g, 0.2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters) != 1 {
		t.Errorf("clique split into %d clusters", len(d.Clusters))
	}
	if len(d.Removed) != 0 {
		t.Errorf("clique lost %d edges", len(d.Removed))
	}
}

func TestDecomposeBarbellSplitsAtBridge(t *testing.T) {
	// Two K6 joined by one edge: the bridge is the sparse cut.
	a, b := graph.Complete(6), graph.Complete(6)
	bld := graph.NewBuilder(12)
	for _, e := range a.Edges() {
		bld.AddEdge(e.U, e.V)
	}
	for _, e := range b.Edges() {
		bld.AddEdge(e.U+6, e.V+6)
	}
	bld.AddEdge(5, 6)
	g := bld.Graph()
	// The bridge cut has Φ = 1/31 ≈ 0.032; force a φ above it so the
	// decomposer must split there.
	d, err := Decompose(g, 0.2, Options{Seed: 4, Phi: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters) != 2 {
		t.Fatalf("barbell split into %d clusters, want 2", len(d.Clusters))
	}
	if len(d.Removed) != 1 {
		t.Fatalf("removed %d edges, want 1 (the bridge)", len(d.Removed))
	}
	if e := g.EdgeAt(d.Removed[0]); e != (graph.Edge{U: 5, V: 6}) {
		t.Errorf("removed %v, want the bridge {5,6}", e)
	}
}

func TestDecomposeInvalidEps(t *testing.T) {
	g := graph.Path(4)
	for _, eps := range []float64{0, -0.5, 1, 2} {
		if _, err := Decompose(g, eps, Options{}); err == nil {
			t.Errorf("eps=%v should error", eps)
		}
	}
}

func TestPhiTargetMonotone(t *testing.T) {
	if PhiTarget(0.2, 100) <= PhiTarget(0.1, 100) {
		t.Error("phi should grow with eps")
	}
	if PhiTarget(0.2, 10000) >= PhiTarget(0.2, 10) {
		t.Error("phi should shrink with m")
	}
}

func TestSingletonsDecomposition(t *testing.T) {
	g := graph.Cycle(5)
	d := Singletons(g)
	if len(d.Clusters) != 5 || len(d.Removed) != 5 {
		t.Errorf("singletons: %d clusters %d removed", len(d.Clusters), len(d.Removed))
	}
	rng := rand.New(rand.NewSource(1))
	rep := d.Verify(g, rng)
	if !rep.CutOK { // eps = 1 budget
		t.Error("singleton decomposition should meet eps=1")
	}
}

func TestFromAssignment(t *testing.T) {
	g := graph.Path(4)
	d := FromAssignment(g, []int{7, 7, 9, 9}, 0.5, 0.1)
	if len(d.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(d.Clusters))
	}
	if len(d.Removed) != 1 {
		t.Fatalf("removed = %d, want 1", len(d.Removed))
	}
	if d.CutFraction(g) != 1.0/3.0 {
		t.Errorf("cut fraction = %v", d.CutFraction(g))
	}
	if d.LargestCluster() != 2 {
		t.Errorf("largest = %d", d.LargestCluster())
	}
}

func TestVerifyDetectsBadDecomposition(t *testing.T) {
	// A path split so a "cluster" is disconnected: {0,2} and {1,3}.
	g := graph.Path(4)
	d := FromAssignment(g, []int{0, 1, 0, 1}, 0.1, 0.01)
	rng := rand.New(rand.NewSource(1))
	rep := d.Verify(g, rng)
	if rep.Connected {
		t.Error("verification should flag disconnected clusters")
	}
	if rep.CutOK {
		t.Error("cut budget 0.1 with all 3 edges removed should fail")
	}
}

func TestClusterConductanceMeetsPhiExactly(t *testing.T) {
	// On a modest graph with exact per-cluster checks, every multi-vertex
	// cluster must certify Φ >= φ.
	g := graph.Grid(6, 6)
	d, err := Decompose(g, 0.3, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range d.Clusters {
		if len(c) < 2 || len(c) > conductance.MaxExactN {
			continue
		}
		sub, _ := d.ClusterView(g, i).Materialize()
		if phi := conductance.ExactConductance(sub); phi < d.Phi {
			t.Errorf("cluster %d: Φ = %v < φ = %v", i, phi, d.Phi)
		}
	}
}

func TestMPXCoversAndBoundsDiameter(t *testing.T) {
	g := graph.Grid(10, 10)
	beta := 0.15
	res, metrics, err := MPX(g, congest.Config{Seed: 9}, beta)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Rounds == 0 {
		t.Error("MPX should use rounds")
	}
	maxRadius := 4*math.Log(float64(g.N())+1)/beta + 1
	for center, members := range res.Assignment.Clusters() {
		sub, toOld := g.Induce(members).Materialize()
		if !sub.Connected() {
			t.Errorf("MPX cluster of %d disconnected", center)
		}
		if d := float64(sub.Diameter()); d > 2*maxRadius {
			t.Errorf("cluster diameter %v exceeds radius bound %v", d, maxRadius)
		}
		// The center belongs to its own cluster.
		found := false
		for _, v := range toOld {
			if v == center {
				found = true
			}
		}
		if !found {
			t.Errorf("center %d not in its own cluster", center)
		}
	}
}

func TestMPXCutFractionScalesWithBeta(t *testing.T) {
	g := graph.Grid(16, 16)
	frac := func(beta float64) float64 {
		res, _, err := MPX(g, congest.Config{Seed: 17}, beta)
		if err != nil {
			t.Fatal(err)
		}
		cut := 0
		for i := 0; i < g.M(); i++ {
			e := g.EdgeAt(i)
			if res.Assignment[e.U] != res.Assignment[e.V] {
				cut++
			}
		}
		return float64(cut) / float64(g.M())
	}
	small, large := frac(0.05), frac(0.5)
	if small >= large {
		t.Errorf("cut fraction should grow with beta: %v vs %v", small, large)
	}
	if small > 0.3 {
		t.Errorf("beta=0.05 cut fraction %v unexpectedly high", small)
	}
}

func TestMPXInvalidBeta(t *testing.T) {
	g := graph.Path(4)
	for _, beta := range []float64{0, 1, -0.2} {
		if _, _, err := MPX(g, congest.Config{Seed: 1}, beta); err == nil {
			t.Errorf("beta=%v should error", beta)
		}
	}
}

func TestDistributedDecomposeContract(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.Grid(9, 9)
	d, metrics, err := DistributedDecompose(g, congest.Config{Seed: 23}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Rounds == 0 {
		t.Error("distributed decomposition should spend rounds")
	}
	rep := d.Verify(g, rng)
	if !rep.Connected {
		t.Error("distributed decomposition produced disconnected cluster")
	}
	// The MPX stage is randomized: the ε bound holds in expectation. Allow
	// 2x headroom before failing the test.
	if rep.CutFraction > 2*0.4 {
		t.Errorf("cut fraction %v far above eps", rep.CutFraction)
	}
	if rep.Exact && !rep.ConductanceOK {
		t.Errorf("cluster conductance %v below phi %v", rep.MinConductance, d.Phi)
	}
}

// The refine stage numbers clusters in ascending MPX-center order, so
// repeated runs give the same decomposition, cluster IDs included.
func TestDistributedDecomposeDeterministic(t *testing.T) {
	g := graph.Grid(16, 16)
	var want uint64
	for run := 0; run < 10; run++ {
		d, _, err := DistributedDecompose(g, congest.Config{Seed: 3}, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		fp := decompositionFingerprint(d)
		if run == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("run %d: fingerprint %#x, want %#x", run, fp, want)
		}
	}
}

func TestDistributedDecomposeInvalidEps(t *testing.T) {
	g := graph.Path(4)
	if _, _, err := DistributedDecompose(g, congest.Config{Seed: 1}, 0); err == nil {
		t.Error("eps=0 should error")
	}
}

// Property: for random planar-ish sparse graphs, the decomposition always
// partitions V, Removed is consistent, and the cut budget holds.
func TestQuickDecomposeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		g := graph.RandomPlanar(n, 0.6, rng)
		d, err := Decompose(g, 0.3, Options{Seed: seed})
		if err != nil {
			return false
		}
		count := 0
		for _, c := range d.Clusters {
			count += len(c)
		}
		if count != g.N() {
			return false
		}
		if float64(len(d.Removed)) > 0.3*float64(g.M())+1e-9 {
			return false
		}
		for _, ei := range d.Removed {
			e := g.EdgeAt(ei)
			if d.Assignment[e.U] == d.Assignment[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The paper's hypercube remark: decompositions of the hypercube need
// φ = O(1/log n); verify our decomposer still meets its contract there.
func TestDecomposeHypercube(t *testing.T) {
	g := graph.Hypercube(6)
	rng := rand.New(rand.NewSource(31))
	d, err := Decompose(g, 0.3, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Verify(g, rng)
	if !rep.CutOK {
		t.Errorf("hypercube cut fraction %v exceeds 0.3", rep.CutFraction)
	}
	if !rep.Connected {
		t.Error("hypercube cluster disconnected")
	}
}

// TestDecomposeAllocBound pins the allocation cost of a sequential
// decomposition at the E4 scale (16×16 grid, ε = 0.25, seed 2022): at most
// half the 319,352 B/op of the materializing implementation that views
// replaced, and at most the 134 allocs/op recorded when the bound was set.
// Both counts are deterministic, apart from a few hundred bytes the runtime
// may allocate for the cut search's helper goroutine, so any larger growth
// is a real regression.
func TestDecomposeAllocBound(t *testing.T) {
	g := graph.Grid(16, 16)
	decompose := func() {
		if _, err := Decompose(g, 0.25, Options{Seed: 2022}); err != nil {
			t.Fatal(err)
		}
	}
	decompose() // warm up
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decompose()
	}
	runtime.ReadMemStats(&after)
	bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / runs
	allocsPerOp := (after.Mallocs - before.Mallocs) / runs
	t.Logf("Decompose(Grid(16, 16), 0.25): %d B/op, %d allocs/op", bytesPerOp, allocsPerOp)
	if bytesPerOp > 319_352/2 {
		t.Errorf("Decompose allocates %d B/op, want <= %d (half the materializing baseline)", bytesPerOp, 319_352/2)
	}
	if allocsPerOp > 134 {
		t.Errorf("Decompose makes %d allocs/op, want <= 134", allocsPerOp)
	}
}
