package expander

import (
	"fmt"
	"math/rand"
	"sort"

	"expandergap/internal/conductance"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// This file implements incremental decomposition maintenance under churn
// (DESIGN.md §3.16): instead of re-running the full recursive sparse-cut
// decomposition after every mutation batch, DecomposeIncremental re-certifies
// each existing cluster's conductance certificate against the deltas and
// recomputes only the clusters whose certificate broke. The certificate view
// comes from Chang–Saranurak 2020 ("Deterministic Distributed Expander
// Decomposition and Routing"): a cluster is valid iff its induced subgraph is
// connected with conductance ≥ φ, a property that is local to the cluster —
// so a delta that touches no intra-cluster edge cannot invalidate it, and a
// delta that does is settled by re-checking that one cluster.

// IncrementalStats reports what DecomposeIncremental reused and recomputed.
type IncrementalStats struct {
	// PrevClusters is the cluster count of the previous decomposition.
	PrevClusters int
	// Touched counts clusters with at least one intra-cluster delta, i.e.
	// those whose certificate had to be re-checked.
	Touched int
	// Broken counts touched clusters whose certificate failed (disconnected
	// or conductance below φ); their vertices were re-decomposed.
	Broken int
	// Reused is PrevClusters - Broken: clusters carried over intact.
	Reused int
	// NewClusters counts clusters produced by re-decomposing the broken
	// region and the new vertices.
	NewClusters int
	// NewVertices counts vertices added beyond the previous graph.
	NewVertices int
}

// ReuseFraction returns Reused / PrevClusters (1 for an empty previous
// decomposition).
func (s *IncrementalStats) ReuseFraction() float64 {
	if s.PrevClusters == 0 {
		return 1
	}
	return float64(s.Reused) / float64(s.PrevClusters)
}

// DecomposeIncremental maintains prev — a decomposition of ov's base graph —
// across the overlay's deltas. It compacts the overlay to a canonical graph,
// re-certifies every cluster with an intra-cluster insert or delete
// (connectivity plus conductance at least φ: exact up to
// conductance.MaxExactN vertices, the recursion's own cut search above; see
// clusterCertified), reuses every cluster whose certificate held, and re-runs
// Decompose's recursion (parallel.go) only on the union of broken clusters
// and newly added vertices. Deltas that only touch cross-cluster edges never
// trigger recomputation: a deleted crossing edge leaves the removed set, an
// inserted one joins it.
//
// The result keeps prev's φ target (unless opts.Phi overrides it) and
// carries eps (prev's when eps <= 0) as its budget label. Note the staleness
// semantics: reused certificates guarantee every cluster still meets φ, but
// the ε·m removed-edge budget is an amortized property of the from-scratch
// recursion — inserted crossing edges can push the cut fraction past ε until
// a full Decompose re-baselines it. Callers track that drift via
// CutFraction and the churn benchmarks gate it.
//
// Returned alongside the new decomposition are the compacted graph it is
// defined over and the reuse statistics.
func DecomposeIncremental(prev *Decomposition, ov *graph.Overlay, eps float64, opts Options) (*Decomposition, *graph.Graph, *IncrementalStats, error) {
	if prev == nil {
		return nil, nil, nil, fmt.Errorf("expander: incremental decomposition needs a previous decomposition")
	}
	baseN := ov.Base().N()
	if len(prev.Assignment) != baseN {
		return nil, nil, nil, fmt.Errorf("expander: previous decomposition covers %d vertices, overlay base has %d",
			len(prev.Assignment), baseN)
	}
	phi := prev.Phi
	if opts.Phi != 0 {
		phi = opts.Phi
	}
	if eps <= 0 {
		eps = prev.Eps
	}

	g, err := ov.Compact()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("expander: compact overlay: %w", err)
	}

	stats := &IncrementalStats{
		PrevClusters: len(prev.Clusters),
		NewVertices:  g.N() - baseN,
	}

	// A cluster's certificate can only change through an intra-cluster edge
	// delta. Deleted vertices show up here too: tombstoning deletes their
	// incident edges, so their cluster is re-checked (and the now-isolated
	// vertex split off by the connectivity check).
	touched := make(map[int]bool)
	ov.ForEachDeleted(func(_ int, e graph.Edge) {
		if prev.Assignment[e.U] == prev.Assignment[e.V] {
			touched[prev.Assignment[e.U]] = true
		}
	})
	ov.ForEachInserted(func(e graph.Edge, _ int64, _ int8) {
		if e.U < baseN && e.V < baseN && prev.Assignment[e.U] == prev.Assignment[e.V] {
			touched[prev.Assignment[e.U]] = true
		}
	})
	stats.Touched = len(touched)

	// Re-certify the touched clusters on the compacted graph. The cut-search
	// fallback is piece-seeded like the recursion, so the verdict is a pure
	// function of (cluster, opts.Seed) — independent of check order.
	broken := make(map[int]bool)
	for cid := range touched {
		if !clusterCertified(g, prev.Clusters[cid], phi, opts) {
			broken[cid] = true
		}
	}
	stats.Broken = len(broken)
	stats.Reused = stats.PrevClusters - stats.Broken

	// The region to re-decompose: every vertex of a broken cluster plus the
	// vertices added since prev. Reused clusters keep their vertices, so the
	// recursion below never sees them — exactly the InduceFiltered-style
	// zero-copy isolation the full recursion uses for sibling pieces.
	var region []int
	for cid := range broken {
		region = append(region, prev.Clusters[cid]...)
	}
	for v := baseN; v < g.N(); v++ {
		region = append(region, v)
	}
	sort.Ints(region)

	next := &Decomposition{
		Assignment: make(primitives.ClusterAssignment, g.N()),
		Eps:        eps,
		Phi:        phi,
	}
	// Reused clusters first, in prev's order (renumbered densely), then the
	// clusters of the re-decomposed region in DFS discovery order.
	for cid, verts := range prev.Clusters {
		if !broken[cid] {
			next.addCluster(verts)
		}
	}
	if len(region) > 0 {
		newClusters := newDecomposer(g, phi, opts).solve(region)
		stats.NewClusters = len(newClusters)
		for _, verts := range newClusters {
			next.addCluster(verts)
		}
	}
	// Removed edges are exactly the crossing edges of the new assignment —
	// one O(m) scan, identical to what FromAssignment pins.
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if next.Assignment[e.U] != next.Assignment[e.V] {
			next.Removed = append(next.Removed, i)
		}
	}
	return next, g, stats, nil
}

// clusterCertified re-checks one cluster's certificate on g: the induced
// subgraph must be connected and have conductance at least phi. Clusters of
// at most conductance.MaxExactN vertices get Verify's exact check, tolerance
// included, so a reused cluster of that size never fails Verify. Larger ones
// get the recursion's own acceptance criterion: no cut below phi found by
// the cut search, which draws from a cluster-seeded PRNG, making the verdict
// a pure function of (cluster, opts.Seed). Single-vertex clusters are
// vacuously certified, matching Verify.
func clusterCertified(g *graph.Graph, verts []int, phi float64, opts Options) bool {
	sub := g.Induce(verts)
	if sub.N() <= 1 {
		return true
	}
	if !sub.Connected() {
		return false
	}
	if sub.N() <= conductance.MaxExactN {
		return conductance.ExactConductance(sub) >= phi-1e-12
	}
	rng := rand.New(rand.NewSource(pieceSeed(opts.Seed, verts)))
	cut, cutPhi := bestSparseCut(sub, phi, rng)
	return cut == nil || cutPhi >= phi
}

// ProjectStale extends prev — a decomposition of a predecessor of g — onto g
// without any recomputation: vertices keep their cluster, vertices added
// since prev become singletons, and the removed set is recomputed as the
// crossing edges of g. The projection makes no conductance claim (clusters
// may be disconnected or below φ on the mutated graph); it exists so the
// churn scenarios can measure how approximation quality and round counts
// degrade when a service keeps answering from a stale decomposition instead
// of paying for maintenance.
func ProjectStale(prev *Decomposition, g *graph.Graph) *Decomposition {
	assign := make(primitives.ClusterAssignment, g.N())
	copy(assign, prev.Assignment)
	next := len(prev.Clusters)
	for v := len(prev.Assignment); v < g.N(); v++ {
		assign[v] = next
		next++
	}
	return FromAssignment(g, assign, prev.Eps, prev.Phi)
}
