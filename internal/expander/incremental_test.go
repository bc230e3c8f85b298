package expander

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"expandergap/internal/conductance"
	"expandergap/internal/graph"
)

// churnedInstance builds base, decomposes it, generates a churn stream of
// round(frac*m) ops, and returns the applied overlay alongside the previous
// decomposition.
func churnedInstance(t *testing.T, base *graph.Graph, eps float64, opts Options, frac float64, churnSeed int64) (*Decomposition, *graph.Overlay) {
	t.Helper()
	prev, err := Decompose(base, eps, opts)
	if err != nil {
		t.Fatalf("full decompose: %v", err)
	}
	count := int(frac * float64(base.M()))
	ops, err := graph.GenerateChurn(base, count, churnSeed)
	if err != nil {
		t.Fatalf("generate churn: %v", err)
	}
	ov := graph.NewOverlay(base)
	if n, err := ov.ApplyAll(ops); err != nil {
		t.Fatalf("apply op %d: %v", n, err)
	}
	return prev, ov
}

func vertsKey(verts []int) string {
	var sb strings.Builder
	for _, v := range verts {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	return sb.String()
}

// With no deltas every certificate holds trivially, so the incremental result
// must be the previous decomposition verbatim: full reuse, zero recomputation,
// identical fingerprint.
func TestIncrementalZeroChurnIdentity(t *testing.T) {
	base := graph.Grid(16, 16)
	opts := Options{Seed: 2022, Phi: 0.15}
	prev, err := Decompose(base, 0.999, opts)
	if err != nil {
		t.Fatalf("full decompose: %v", err)
	}
	ov := graph.NewOverlay(base)
	next, g, stats, err := DecomposeIncremental(prev, ov, 0, opts)
	if err != nil {
		t.Fatalf("incremental: %v", err)
	}
	if g.M() != base.M() || g.N() != base.N() {
		t.Fatalf("compacted graph n=%d m=%d, want n=%d m=%d", g.N(), g.M(), base.N(), base.M())
	}
	if stats.Touched != 0 || stats.Broken != 0 || stats.NewClusters != 0 {
		t.Errorf("zero churn stats = %+v, want nothing touched", *stats)
	}
	if stats.Reused != len(prev.Clusters) || stats.ReuseFraction() != 1 {
		t.Errorf("reused %d/%d (%.2f), want full reuse", stats.Reused, len(prev.Clusters), stats.ReuseFraction())
	}
	if got, want := decompositionFingerprint(next), decompositionFingerprint(prev); got != want {
		t.Errorf("fingerprint %#x != previous %#x", got, want)
	}
	if next.Eps != prev.Eps || next.Phi != prev.Phi {
		t.Errorf("labels (eps=%v phi=%v) != prev (eps=%v phi=%v)", next.Eps, next.Phi, prev.Eps, prev.Phi)
	}
}

// Under ~10% churn most certificates survive: the incremental result must
// reuse at least half the clusters, carry every reused cluster's vertex set
// over exactly (same order, densely renumbered), and still verify as a valid
// decomposition of the mutated graph.
func TestIncrementalChurnedReuseAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	cases := []struct {
		name string
		base *graph.Graph
		eps  float64
		opts Options
	}{
		{"grid16x16", graph.Grid(16, 16), 0.999, Options{Seed: 2022, Phi: 0.15}},
		{"e7planar36", graph.WithRandomWeights(graph.RandomPlanar(36, 0.7, rng), 10, rng), 0.3, Options{Seed: 2022, Phi: 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev, ov := churnedInstance(t, tc.base, tc.eps, tc.opts, 0.10, 7)
			next, g, stats, err := DecomposeIncremental(prev, ov, 0, tc.opts)
			if err != nil {
				t.Fatalf("incremental: %v", err)
			}
			if stats.Reused+stats.NewClusters != len(next.Clusters) {
				t.Errorf("cluster accounting: reused %d + new %d != total %d",
					stats.Reused, stats.NewClusters, len(next.Clusters))
			}
			if f := stats.ReuseFraction(); f < 0.5 {
				t.Errorf("reuse fraction %.2f below 0.5 (stats %+v)", f, *stats)
			}
			// The first Reused clusters are prev's surviving clusters in prev's
			// order; each must match a previous cluster's vertex set exactly.
			prevSets := make(map[string]bool, len(prev.Clusters))
			for _, verts := range prev.Clusters {
				prevSets[vertsKey(verts)] = true
			}
			for i := 0; i < stats.Reused; i++ {
				if !prevSets[vertsKey(next.Clusters[i])] {
					t.Errorf("reused cluster %d (%v) is not a previous cluster", i, next.Clusters[i])
				}
			}
			rep := next.Verify(g, rand.New(rand.NewSource(1)))
			if !rep.Connected || !rep.ConductanceOK {
				t.Errorf("verify: connected=%v conductanceOK=%v minPhi=%v", rep.Connected, rep.ConductanceOK, rep.MinConductance)
			}
		})
	}
}

// TestIncrementalReusedClustersPassExactCheck sweeps churn seeds 1–20 at
// 10% churn on the 16×16 grid (φ 0.15, seeds 2022 and 7). Every cluster
// that an intra-cluster delta touched and DecomposeIncremental still reused
// must be connected with exact conductance at least φ, as Verify checks it:
// the touched set is computed here from the overlay's deltas.
func TestIncrementalReusedClustersPassExactCheck(t *testing.T) {
	base := graph.Grid(16, 16)
	for _, seed := range []int64{2022, 7} {
		opts := Options{Seed: seed, Phi: 0.15}
		for churnSeed := int64(1); churnSeed <= 20; churnSeed++ {
			prev, ov := churnedInstance(t, base, 0.999, opts, 0.10, churnSeed)
			next, g, stats, err := DecomposeIncremental(prev, ov, 0, opts)
			if err != nil {
				t.Fatalf("seed %d churn %d: incremental: %v", seed, churnSeed, err)
			}
			touched := make(map[int]bool)
			ov.ForEachDeleted(func(_ int, e graph.Edge) {
				if prev.Assignment[e.U] == prev.Assignment[e.V] {
					touched[prev.Assignment[e.U]] = true
				}
			})
			ov.ForEachInserted(func(e graph.Edge, _ int64, _ int8) {
				if e.U < base.N() && e.V < base.N() && prev.Assignment[e.U] == prev.Assignment[e.V] {
					touched[prev.Assignment[e.U]] = true
				}
			})
			reused := make(map[string]bool, stats.Reused)
			for _, verts := range next.Clusters[:stats.Reused] {
				reused[vertsKey(verts)] = true
			}
			for cid := range touched {
				verts := prev.Clusters[cid]
				if !reused[vertsKey(verts)] || len(verts) <= 1 {
					continue
				}
				sub := g.Induce(verts)
				if !sub.Connected() {
					t.Errorf("seed %d churn %d: reused touched cluster %v is disconnected", seed, churnSeed, verts)
					continue
				}
				if len(verts) > conductance.MaxExactN {
					continue
				}
				if phi := conductance.ExactConductance(sub); phi < next.Phi-1e-12 {
					t.Errorf("seed %d churn %d: reused touched cluster of %d vertices has exact Φ = %v < φ = %v",
						seed, churnSeed, len(verts), phi, next.Phi)
				}
			}
		}
	}
}

// Incremental maintenance must pay off where it is meant to. On a 32×32 grid
// and a 400-vertex random planar graph (ε = 0.999, φ = 0.2) churned by 1%,
// 5% and 10% of their edges: the reuse accounting adds up, at least half
// the clusters are reused, and wherever under 10% of the clusters broke,
// maintenance (Compact included) is at least 2× faster than a full rebuild
// of the compacted graph, best of 3 to shrug off scheduler noise.
func TestIncrementalFasterThanFull(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rng := rand.New(rand.NewSource(5))
	instances := []struct {
		name string
		base *graph.Graph
	}{
		{"grid32x32", graph.Grid(32, 32)},
		{"planar400", graph.RandomPlanar(400, 0.7, rng)},
	}
	opts := Options{Seed: 2022, Phi: 0.2}
	best := func(fn func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			fn()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	for _, inst := range instances {
		for _, frac := range []float64{0.01, 0.05, 0.10} {
			prev, ov := churnedInstance(t, inst.base, 0.999, opts, frac, 7)
			var (
				g     *graph.Graph
				stats *IncrementalStats
				err   error
			)
			inc := best(func() {
				if _, g, stats, err = DecomposeIncremental(prev, ov, 0, opts); err != nil {
					t.Fatalf("incremental: %v", err)
				}
			})
			full := best(func() {
				if _, err := Decompose(g, 0.999, opts); err != nil {
					t.Fatalf("full: %v", err)
				}
			})
			tag := fmt.Sprintf("%s f=%.2f", inst.name, frac)
			speedup := float64(full) / float64(inc)
			broken := float64(stats.Broken) / float64(stats.PrevClusters)
			t.Logf("%s: reused %d/%d (%.2f), broken %.2f, incremental %v vs full %v (%.1fx)",
				tag, stats.Reused, stats.PrevClusters, stats.ReuseFraction(), broken, inc, full, speedup)
			if stats.Reused+stats.Broken != stats.PrevClusters {
				t.Errorf("%s: reused %d + broken %d != previous %d clusters",
					tag, stats.Reused, stats.Broken, stats.PrevClusters)
			}
			if f := stats.ReuseFraction(); f < 0.5 {
				t.Errorf("%s: reuse fraction %.2f below 0.5", tag, f)
			}
			if broken < 0.1 && speedup < 2 {
				t.Errorf("%s: incremental %v only %.2fx faster than full rebuild %v with %.0f%% broken, want >= 2x",
					tag, inc, speedup, full, broken*100)
			}
		}
	}
}

// Decomposing the overlay's Compact() output must agree exactly with
// decomposing a from-scratch Builder graph over the same live edge set — the
// decomposition-level corollary of the overlay/materialized equivalence the
// graph package fuzzes.
func TestDecomposeCompactedMatchesRebuilt(t *testing.T) {
	base := graph.Grid(16, 16)
	ops, err := graph.GenerateChurn(base, 50, 11)
	if err != nil {
		t.Fatalf("generate churn: %v", err)
	}
	ov := graph.NewOverlay(base)
	if n, err := ov.ApplyAll(ops); err != nil {
		t.Fatalf("apply op %d: %v", n, err)
	}
	compacted, err := ov.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	b := graph.NewBuilder(ov.N())
	for i := 0; i < ov.M(); i++ {
		e := ov.EdgeAt(i)
		b.AddEdge(e.U, e.V)
	}
	rebuilt := b.Graph()
	opts := Options{Seed: 2022, Phi: 0.15}
	dc, err := Decompose(compacted, 0.999, opts)
	if err != nil {
		t.Fatalf("decompose compacted: %v", err)
	}
	dr, err := Decompose(rebuilt, 0.999, opts)
	if err != nil {
		t.Fatalf("decompose rebuilt: %v", err)
	}
	if got, want := decompositionFingerprint(dc), decompositionFingerprint(dr); got != want {
		t.Errorf("compacted fingerprint %#x != rebuilt %#x", got, want)
	}
}

// ProjectStale keeps the old assignment, turns added vertices into
// singletons, and re-derives the removed set on the new graph.
func TestProjectStale(t *testing.T) {
	base := graph.Grid(8, 8)
	opts := Options{Seed: 2022, Phi: 0.15}
	prev, err := Decompose(base, 0.999, opts)
	if err != nil {
		t.Fatalf("full decompose: %v", err)
	}
	ov := graph.NewOverlay(base)
	nv := ov.AddVertex()
	if err := ov.AddEdge(0, nv); err != nil {
		t.Fatalf("add edge: %v", err)
	}
	if err := ov.DeleteEdge(0, 1); err != nil {
		t.Fatalf("delete edge: %v", err)
	}
	g, err := ov.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	stale := ProjectStale(prev, g)
	// FromAssignment renumbers clusters densely, so compare partitions, not
	// raw IDs: base vertices share a stale cluster iff they shared a prev one.
	for u := 0; u < base.N(); u++ {
		for v := u + 1; v < base.N(); v++ {
			same, wantSame := stale.Assignment[u] == stale.Assignment[v], prev.Assignment[u] == prev.Assignment[v]
			if same != wantSame {
				t.Fatalf("partition changed at {%d,%d}: same=%v, want %v", u, v, same, wantSame)
			}
		}
	}
	for v := 0; v < base.N(); v++ {
		if stale.Assignment[v] == stale.Assignment[nv] {
			t.Fatalf("new vertex shares cluster with base vertex %d, want fresh singleton", v)
		}
	}
	if len(stale.Clusters) != len(prev.Clusters)+1 {
		t.Errorf("cluster count %d, want %d", len(stale.Clusters), len(prev.Clusters)+1)
	}
	// Removed must be exactly the crossing edges of the projected assignment.
	for _, ei := range stale.Removed {
		e := g.EdgeAt(ei)
		if stale.Assignment[e.U] == stale.Assignment[e.V] {
			t.Errorf("removed edge %d {%d,%d} is intra-cluster", ei, e.U, e.V)
		}
	}
	want := 0
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if stale.Assignment[e.U] != stale.Assignment[e.V] {
			want++
		}
	}
	if len(stale.Removed) != want {
		t.Errorf("removed %d edges, want %d crossing edges", len(stale.Removed), want)
	}
}

func TestIncrementalErrors(t *testing.T) {
	base := graph.Grid(4, 4)
	ov := graph.NewOverlay(base)
	if _, _, _, err := DecomposeIncremental(nil, ov, 0.5, Options{}); err == nil {
		t.Error("nil previous decomposition accepted")
	}
	other, err := Decompose(graph.Grid(3, 3), 0.5, Options{Seed: 1})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	if _, _, _, err := DecomposeIncremental(other, ov, 0.5, Options{}); err == nil {
		t.Error("mismatched vertex count accepted")
	}
}
