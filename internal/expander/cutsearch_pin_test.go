package expander

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"expandergap/internal/conductance"
	"expandergap/internal/graph"
)

// This file pins the sparse-cut search and the decompositions it serves.
// The pins compare the caller's PRNG position as well as the cut: a search
// that returned the same cut but drew one value more or less would change
// what any caller drawing after it gets.

// refBestSparseCut is the reference cut search: the three spectral trials
// run one after another, each drawing its start vector just before it scores
// sub, then the BFS sweep and the two nibbles.
func refBestSparseCut(sub graph.G, trial func(graph.G, *rand.Rand) []float64, rng *rand.Rand) (map[int]bool, float64) {
	n := sub.N()
	if n < 2 {
		return nil, math.Inf(1)
	}
	if n <= 14 {
		return refExactSparseCut(sub)
	}
	bestPhi := math.Inf(1)
	var best map[int]bool
	for range 3 {
		s, phi := conductance.SweepCut(sub, trial(sub, rng))
		if phi < bestPhi {
			bestPhi, best = phi, s
		}
	}
	dist, _ := graph.BFSOf(sub, 0)
	scores := make([]float64, n)
	for v := range scores {
		if dist[v] < 0 {
			scores[v] = float64(n + 1)
		} else {
			scores[v] = float64(dist[v])
		}
	}
	if s, phi := conductance.SweepCut(sub, scores); phi < bestPhi {
		bestPhi, best = phi, s
	}
	epsPush := 1.0 / (20 * float64(sub.M()+1))
	seeds := []int{rng.Intn(n), rng.Intn(n)}
	for _, seed := range seeds {
		s, phi := conductance.Nibble(sub, seed, 0.1, epsPush)
		if s != nil && len(s) > 0 && len(s) < n && phi < bestPhi {
			bestPhi, best = phi, s
		}
	}
	return best, bestPhi
}

// filterTrial is the cut search's spectral trial at phi, run on its own: a
// start vector drawn from rng, then the Chebyshev filter.
func filterTrial(phi float64) func(graph.G, *rand.Rand) []float64 {
	return func(g graph.G, rng *rand.Rand) []float64 {
		n := g.N()
		f := conductance.NewFiedler(g)
		v := make([]float64, 3*n)
		f.Start(v[:n], rng)
		return f.Filter(v[:n], v[n:2*n], v[2*n:], phi)
	}
}

// powerTrial is the spectral trial the cut search ran before the filter:
// 300 power iterations from a start vector drawn from rng.
func powerTrial(g graph.G, rng *rand.Rand) []float64 {
	return conductance.FiedlerScores(g, 300, rng)
}

// refExactSparseCut is the reference exhaustive cut search: every mask over
// vertices 0..n-2 in increasing order, each cut's volume summed over its
// vertices and its size counted over every edge, the first strictly better
// cut kept; cuts with an empty-volume side are skipped.
func refExactSparseCut(sub graph.G) (map[int]bool, float64) {
	n := sub.N()
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = sub.Degree(v)
	}
	totalVol := 2 * sub.M()
	edges := graph.EdgesOf(sub)
	bestPhi := math.Inf(1)
	bestMask := 0
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
		if minVol == 0 {
			continue
		}
		phi := float64(cut) / float64(minVol)
		if phi < bestPhi {
			bestPhi = phi
			bestMask = mask
		}
	}
	if bestMask == 0 {
		return nil, math.Inf(1)
	}
	s := make(map[int]bool)
	for v := 0; v < n-1; v++ {
		if bestMask&(1<<v) != 0 {
			s[v] = true
		}
	}
	return s, bestPhi
}

// TestExactSparseCutPinned pins the cut search's exhaustive branch (pieces
// of at most 14 vertices) to the reference enumeration: the same cut set,
// the same φ bits, and no draw from the caller's PRNG. It runs on 2,400
// random connected graphs of 2–14 vertices, sparse to dense, and on the edge
// cases: 0 and 1 vertices, an edgeless graph, isolated vertices, a
// disconnected graph, a 14-vertex ladder and clique, and filtered views.
func TestExactSparseCutPinned(t *testing.T) {
	check := func(name string, g graph.G) {
		t.Helper()
		rng, ref := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		gs, gphi := bestSparseCut(g, 0.3, rng)
		var ws map[int]bool
		wphi := math.Inf(1)
		if g.N() >= 2 {
			ws, wphi = refExactSparseCut(g)
		}
		if math.Float64bits(gphi) != math.Float64bits(wphi) {
			t.Errorf("%s (n=%d m=%d): φ = %v, reference %v", name, g.N(), g.M(), gphi, wphi)
		}
		if !maps.Equal(gs, ws) || (gs == nil) != (ws == nil) {
			t.Errorf("%s (n=%d m=%d): cut %v, reference %v", name, g.N(), g.M(), gs, ws)
		}
		if rng.Int63() != ref.Int63() {
			t.Errorf("%s: the exhaustive search drew from the caller's PRNG", name)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2400; i++ {
		n := 2 + i%13
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(rng.Intn(v), v)
		}
		p := rng.Float64() * rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		check(fmt.Sprintf("random #%d", i), b.Graph())
	}
	grid := graph.Grid(4, 4)
	for _, tc := range []struct {
		name string
		g    graph.G
	}{
		{"n=0", graph.NewBuilder(0).Graph()},
		{"n=1", graph.Path(1)},
		{"n=2 edge", graph.Path(2)},
		{"n=2 edgeless", graph.NewBuilder(2).Graph()},
		{"edgeless", graph.NewBuilder(6).Graph()},
		{"isolated vertices", graph.Disjoint(graph.Cycle(5), graph.NewBuilder(2).Graph())},
		{"isolated last vertex", graph.Disjoint(graph.Complete(4), graph.Path(1))},
		{"disconnected", graph.Disjoint(graph.Complete(5), graph.Cycle(6))},
		{"grid2x7", graph.Grid(2, 7)},
		{"complete14", graph.Complete(14)},
		{"filtered view", grid.InduceFiltered([]int{0, 1, 2, 4, 5, 6, 8, 9, 10, 13, 14}, func(ei int) bool { return ei%5 == 1 })},
		{"filtered view, all edges dropped", grid.InduceFiltered([]int{0, 1, 4, 5}, func(int) bool { return true })},
	} {
		check(tc.name, tc.g)
	}
}

// cutSearchPieces returns the pieces the cut-search pin runs on: grids,
// planar and random graphs, a disconnected graph, filtered views, and a
// piece small enough for the exact search.
func cutSearchPieces() []struct {
	name string
	g    graph.G
} {
	rng := rand.New(rand.NewSource(17))
	planar500 := graph.RandomPlanar(500, 0.6, rng)
	firstHalf := make([]int, 250)
	for i := range firstHalf {
		firstHalf[i] = i
	}
	er800 := er800Fixture()
	oddHalf := make([]int, 0, 400)
	for v := 1; v < er800.N(); v += 2 {
		oddHalf = append(oddHalf, v)
	}
	grid := graph.Grid(14, 14)
	everyOther := make([]int, 0, grid.N())
	for v := 0; v < grid.N(); v++ {
		if v%9 != 4 {
			everyOther = append(everyOther, v)
		}
	}
	return []struct {
		name string
		g    graph.G
	}{
		{"grid16x16", graph.Grid(16, 16)},
		{"grid20x10", graph.Grid(20, 10)},
		{"grid4x40", graph.Grid(4, 40)},
		{"trigrid12x12", graph.TriangulatedGrid(12, 12)},
		{"torus8x8", graph.Torus(8, 8)},
		{"maxplanar200", graph.RandomMaximalPlanar(200, rng)},
		{"maxplanar300", graph.RandomMaximalPlanar(300, rng)},
		{"planar300", graph.RandomPlanar(300, 0.6, rng)},
		{"planar500", planar500},
		{"er400", graph.ErdosRenyiStream(400, 6.0/400, 3, 0)},
		{"er800", er800},
		{"er200", graph.ErdosRenyiStream(200, 4.0/200, 9, 0)},
		{"grid8x30", graph.Grid(8, 30)},
		{"trigrid6x20", graph.TriangulatedGrid(6, 20)},
		{"maxplanar120", graph.RandomMaximalPlanar(120, rng)},
		{"er300-sparse", graph.ErdosRenyiStream(300, 1.5/300, 5, 0)},
		{"barbell-grids", graph.Disjoint(graph.Grid(5, 5), graph.Grid(5, 5))},
		{"planar500-view", planar500.InduceFiltered(firstHalf, func(ei int) bool { return ei%7 == 2 })},
		{"grid14-view", grid.InduceFiltered(everyOther, func(ei int) bool { return ei%11 == 0 })},
		{"er800-view", er800.InduceFiltered(oddHalf, func(ei int) bool { return ei%13 == 6 })},
		{"path15", graph.Path(15)},
		{"cycle12-exact", graph.Cycle(12)},
	}
}

// TestBestSparseCutPinned pins the concurrent cut search to the sequential
// reference of the same trials, at the φ Decompose aims at on each piece at
// ε 0.3.
func TestBestSparseCutPinned(t *testing.T) {
	for _, tc := range cutSearchPieces() {
		phi := PhiTarget(0.3, tc.g.M())
		for _, seed := range []int64{1, 2022} {
			// The det=false segment keeps each subtest's name stable across
			// the search's history, so past results stay comparable.
			name := fmt.Sprintf("%s/det=false/seed=%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				gs, gphi := bestSparseCut(tc.g, phi, got)
				ws, wphi := refBestSparseCut(tc.g, filterTrial(phi), want)
				if math.Float64bits(gphi) != math.Float64bits(wphi) {
					t.Errorf("φ = %v, reference %v", gphi, wphi)
				}
				if !maps.Equal(gs, ws) {
					t.Errorf("cut of %d vertices differs from the reference cut of %d", len(gs), len(ws))
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Errorf("caller's PRNG then draws %d, reference %d", g, w)
				}
			})
		}
	}
}

// churnChain mirrors the server's /mutate path on g: ten 25-op batches of
// one GenerateChurn trace, each applied as an overlay on the previous
// snapshot's graph and absorbed by DecomposeIncremental. It returns the
// FNV-64a hash of every intermediate decomposition's fingerprint, chained.
func churnChain(t *testing.T, g *graph.Graph, opts Options) uint64 {
	t.Helper()
	dec, err := Decompose(g, 0.3, opts)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	const batches, batch = 10, 25
	ops, err := graph.GenerateChurn(g, batches*batch, 1)
	if err != nil {
		t.Fatalf("GenerateChurn: %v", err)
	}
	h := fnv.New64a()
	for k := 0; k < batches; k++ {
		ov := graph.NewOverlay(g)
		if i, err := ov.ApplyAll(ops[k*batch : (k+1)*batch]); err != nil {
			t.Fatalf("batch %d op %d: %v", k, i, err)
		}
		if dec, g, _, err = DecomposeIncremental(dec, ov, 0.3, opts); err != nil {
			t.Fatalf("batch %d: DecomposeIncremental: %v", k, err)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, decompositionFingerprint(dec)))
	}
	return h.Sum64()
}

// TestChurnDecompositionsPinned fingerprints what the server publishes for
// the er800 bench fixture at its defaults (ε 0.3, seed 1) after ten churn
// batches, with no pool and with a pool of 2. TestDecomposeGolden pins the
// full decompositions of the fixtures.
func TestChurnDecompositionsPinned(t *testing.T) {
	const want = 0x154bd935c3f8c009
	for _, workers := range []int{1, 2} {
		if got := churnChain(t, er800Fixture(), Options{Seed: 1, Workers: workers}); got != want {
			t.Errorf("workers=%d: chained fingerprint %#x, want %#x", workers, got, want)
		}
	}
}

// TestDecompositionScheduleIndependent runs Decompose and the incremental
// path on a pool of 2 under one and under four Ps: the piece fan-out and the
// concurrent cut search must give the same output whatever the scheduler
// does with them. TestDecomposeParallelWorkerInvariance covers the other
// pool sizes.
func TestDecompositionScheduleIndependent(t *testing.T) {
	g := graph.RandomPlanar(800, 0.6, rand.New(rand.NewSource(8)))
	run := func(procs int) []uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		opts := Options{Seed: 5, Workers: 2}
		d, err := Decompose(g, 0.3, opts)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		return []uint64{decompositionFingerprint(d), churnChain(t, g, opts)}
	}
	one, four := run(1), run(4)
	if !slices.Equal(one, four) {
		t.Errorf("outputs under GOMAXPROCS(1) %v differ from GOMAXPROCS(4) %v", one, four)
	}
}
