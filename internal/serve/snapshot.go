package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
	"expandergap/internal/routing"
)

// Spec describes how to build a snapshot: where the graph comes from and
// which decomposition to compute over it.
type Spec struct {
	// Path is the graph file (text edge list or binary CSR; sniffed by
	// magic).
	Path string `json:"path"`
	// Mmap memory-maps a binary CSR file instead of reading it onto the
	// heap. The file must outlive the mapping: it stays open/mapped until
	// the snapshot is retired AND the last request using it finishes.
	Mmap bool `json:"mmap"`
	// Eps is the decomposition edge-removal budget ε, in (0,1)
	// (0 = 0.3).
	Eps float64 `json:"eps"`
	// Seed drives the decomposer.
	Seed int64 `json:"seed"`
	// DecWorkers sizes the decomposer's goroutine pool (expander
	// Options.Workers); the decomposition is the same at every value.
	DecWorkers int `json:"dec_workers"`
}

func (s Spec) withDefaults() Spec {
	if s.Eps == 0 {
		s.Eps = 0.3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Snapshot is one immutable serving state: a graph, its expander
// decomposition, the derived leader/routing tables, and the epoch that
// identifies it. Snapshots are shared by reference between the server and
// all in-flight requests; nothing in a snapshot is ever mutated after
// build, except that the first framework query fills in the cached
// framework prefix, once (frameworkPrefix).
type Snapshot struct {
	// Epoch is the monotone identity of this snapshot. Every query
	// response and cache key carries it.
	Epoch int64
	// Spec is the build recipe (POST /reload with no body rebuilds it).
	Spec Spec
	// G is the served network.
	G *graph.Graph
	// Dec is the cached expander decomposition every query amortizes.
	Dec *expander.Decomposition
	// Leader maps each vertex to its cluster's leader: the member with
	// maximum intra-cluster degree, lowest ID on ties (computeLeaders).
	// walkroute routes to it and every result's per_cluster names it.
	Leader []int
	// WalkBudget is the default forward budget for walk-routing queries:
	// the theoretical WalkBudget(φ, n) capped at 8n+256 (real clusters
	// beat the worst-case conductance target by far).
	WalkBudget int
	// ZeroCopy reports whether G aliases a live mmap (true only on the
	// mmap path on supporting hosts).
	ZeroCopy bool
	// Mutations is the cumulative count of /mutate ops applied to the
	// serving graph since it was last loaded from Spec.Path; a reload
	// resets it to zero. A mutated snapshot is heap-backed even if its
	// ancestor was mmapped — Compact always materializes fresh CSR arrays.
	Mutations int64
	// LoadDuration and BuildDuration split the snapshot build cost into
	// graph loading and decomposition.
	LoadDuration  time.Duration
	BuildDuration time.Duration

	mapped *graph.Mapped
	// prefix caches the framework phases that depend only on G and Dec
	// (core.Prepare), built by the first framework query on this snapshot.
	prefixOnce sync.Once
	prefix     *core.Prefix
	prefixErr  error
	prepares   atomic.Int32 // core.Prepare calls on this snapshot: at most one
	// refs counts the server's own reference (1 from birth) plus one per
	// in-flight request. It only reaches zero after retire(), at which
	// point the mmap (if any) is released; acquire never revives a
	// drained snapshot.
	refs atomic.Int64
}

// BuildSnapshot loads the graph named by spec and decomposes it. The whole
// build happens off to the side: nothing is shared with any live snapshot,
// which is what makes the /reload swap safe.
func BuildSnapshot(spec Spec, epoch int64) (*Snapshot, error) {
	spec = spec.withDefaults()
	if spec.Path == "" {
		return nil, fmt.Errorf("serve: snapshot spec has no graph path")
	}
	if spec.Eps <= 0 || spec.Eps >= 1 {
		return nil, fmt.Errorf("serve: eps must be in (0,1), got %v", spec.Eps)
	}
	t0 := time.Now()
	var (
		g      *graph.Graph
		mapped *graph.Mapped
		err    error
	)
	if spec.Mmap {
		mapped, err = graph.OpenMapped(spec.Path)
		if err != nil {
			return nil, fmt.Errorf("serve: mmap %s: %w", spec.Path, err)
		}
		g = mapped.Graph
	} else {
		g, err = graph.LoadFile(spec.Path)
		if err != nil {
			return nil, fmt.Errorf("serve: load %s: %w", spec.Path, err)
		}
	}
	loadDur := time.Since(t0)

	t1 := time.Now()
	dec, err := expander.Decompose(g, spec.Eps, expander.Options{Seed: spec.Seed, Workers: spec.DecWorkers})
	if err != nil {
		if mapped != nil {
			mapped.Close()
		}
		return nil, fmt.Errorf("serve: decompose %s: %w", spec.Path, err)
	}
	s := &Snapshot{
		Epoch:         epoch,
		Spec:          spec,
		G:             g,
		Dec:           dec,
		Leader:        computeLeaders(g, dec),
		WalkBudget:    defaultWalkBudget(dec.Phi, g.N()),
		ZeroCopy:      mapped != nil && graph.MapIsZeroCopy(),
		LoadDuration:  loadDur,
		BuildDuration: time.Since(t1),
		mapped:        mapped,
	}
	s.refs.Store(1)
	return s, nil
}

// frameworkPrefix returns the snapshot's framework prefix: the §2.3
// diameter check, leader election, orientation, and routing budget over
// Dec, simulated by the first framework query to ask and shared read-only
// by every later one (concurrent first queries wait for that one). It is
// prepared lazily rather than in BuildSnapshot so /reload and /mutate stay
// as cheap as the decomposition, and a snapshot that only serves walkroute
// never pays for it. cfg supplies the simulator settings every framework
// query uses (the prefix does not depend on the seed: the primitives draw
// no randomness, and serve never injects faults).
func (s *Snapshot) frameworkPrefix(cfg congest.Config) (*core.Prefix, error) {
	s.prefixOnce.Do(func() {
		s.prepares.Add(1)
		s.prefix, s.prefixErr = core.Prepare(s.G, s.Dec, core.Options{Cfg: cfg})
	})
	return s.prefix, s.prefixErr
}

// acquire pins the snapshot for one request. It fails only on a snapshot
// that has already fully drained (retired with no requests left), in which
// case the caller must re-read the current pointer.
func (s *Snapshot) acquire() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release drops one pin. The last release after retire() frees the mmap.
func (s *Snapshot) release() {
	if s.refs.Add(-1) == 0 && s.mapped != nil {
		s.mapped.Close()
	}
}

// retire drops the server's own reference after a swap (or at shutdown).
// In-flight requests keep the snapshot alive until they finish.
func (s *Snapshot) retire() { s.release() }

// computeLeaders elects, sequentially at build time, the max-intra-cluster-
// degree member (lowest ID on ties) of every cluster. §2.3's
// message-passing election (primitives.ElectLeaders) ranks by the same
// degree but breaks ties by the larger ID, so on a tie the vertex that
// gathers and solves a cluster in a framework run can differ from this one.
func computeLeaders(g *graph.Graph, dec *expander.Decomposition) []int {
	n := g.N()
	inDeg := make([]int, n)
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if dec.Assignment[e.U] == dec.Assignment[e.V] {
			inDeg[e.U]++
			inDeg[e.V]++
		}
	}
	leader := make([]int, n)
	for _, members := range dec.Clusters {
		best := members[0] // members ascending, so ties keep the lowest ID
		for _, v := range members[1:] {
			if inDeg[v] > inDeg[best] {
				best = v
			}
		}
		for _, v := range members {
			leader[v] = best
		}
	}
	return leader
}

func defaultWalkBudget(phi float64, n int) int {
	return min(routing.WalkBudget(phi, n), maxWalkBudget(n))
}

// maxWalkBudget caps a walkroute forward budget on an n-vertex graph: the
// exchange takes about two rounds per budget step whether or not any
// token still walks, so the cap bounds how long one query holds a run slot.
func maxWalkBudget(n int) int { return 8*n + 256 }

// maxLevels caps a clustering depth on an n-vertex graph. A run's cost is
// linear in its levels, so the cap bounds how long one query holds a run
// slot. KPR chopping needs O(|H|) levels on an H-minor-free graph, and no
// n-vertex graph has a K_(n+1) minor, so n levels are as many as it ever
// calls for; the floor keeps the default depth 3 valid on tiny graphs.
func maxLevels(n int) int { return max(n, 3) }
