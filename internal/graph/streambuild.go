package graph

import (
	"fmt"
	"math"
)

// StreamingBuilder assembles a Graph from an edge stream in two passes with
// O(1) work and zero allocations per edge: pass one counts degrees, pass two
// writes the CSR arrays directly at their final positions, so a 100M-edge
// graph costs exactly its CSR arrays plus the edge list — nothing transient.
// It is the only code that lays out CSR rows from edges: Builder, the
// parallel generators and Overlay.Compact all feed it, so every
// construction path yields the same canonical graph for the same edge set.
//
// The price of the direct placement is an ordering contract: edges must be
// streamed in strictly increasing canonical order (U < V, sorted by (U, V),
// no duplicates), and both passes must stream the same edges in the same
// order. That is exactly the order WriteEdgeList and WriteBinary emit and
// the order the streaming generators produce, so every on-disk source
// satisfies it for free; arbitrary-order input belongs in Builder, which
// sorts and deduplicates before streaming.
//
// Protocol:
//
//	sb, err := NewStreamingBuilder(n, m, weighted, signed)
//	for each edge { sb.Count(u, v) }     // pass 1
//	sb.FinishCount()
//	for each edge { sb.Place(u, v, w, s) } // pass 2, same order
//	g, err := sb.Graph()
//
// All methods return errors instead of panicking: streaming construction is
// an I/O path, and malformed input must surface as a diagnosable error, not
// a crash.
type StreamingBuilder struct {
	n, m             int
	weighted, signed bool
	phase            int // 0 counting, 1 placing, 2 finished
	counted, placed  int

	adjOff []int32 // during pass 1, adjOff[v+1] accumulates deg(v)
	adjTo  []int32
	adjIdx []int32
	edges  []Edge
	weight []int64
	sign   []int8
	cursor []int32
	lastU  int
	lastV  int
}

// NewStreamingBuilder returns a streaming builder for a graph on n vertices
// and exactly m edges. The weighted/signed flags declare up front which
// per-edge annotation arrays the graph carries (they cannot be discovered
// mid-stream without buffering).
func NewStreamingBuilder(n, m int, weighted, signed bool) (*StreamingBuilder, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("graph: negative edge count %d", m)
	}
	if n > math.MaxInt32 || m > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph: n=%d m=%d exceeds the CSR int32 index range", n, m)
	}
	return &StreamingBuilder{
		n:        n,
		m:        m,
		weighted: weighted,
		signed:   signed,
		adjOff:   make([]int32, n+1),
		lastU:    -1,
		lastV:    -1,
	}, nil
}

// checkEndpoints validates one edge's endpoints. Shared by both passes.
func (sb *StreamingBuilder) checkEndpoints(u, v int) error {
	if u < 0 || u >= sb.n || v < 0 || v >= sb.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range for n=%d: %w", u, v, sb.n, ErrVertexRange)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d: %w", u, ErrSelfLoop)
	}
	return nil
}

// Count records one edge of pass 1. Endpoints may arrive in either order;
// ordering between edges is not checked here (degree counting commutes), it
// is enforced by Place in pass 2.
func (sb *StreamingBuilder) Count(u, v int) error {
	if sb.phase != 0 {
		return fmt.Errorf("graph: StreamingBuilder.Count called after FinishCount")
	}
	if err := sb.checkEndpoints(u, v); err != nil {
		return err
	}
	if sb.counted == sb.m {
		return fmt.Errorf("graph: counting pass saw more than the declared %d edges", sb.m)
	}
	sb.adjOff[u+1]++
	sb.adjOff[v+1]++
	sb.counted++
	return nil
}

// FinishCount ends pass 1: it prefix-sums the degree counts into row offsets
// and allocates the remaining CSR arrays at their exact final sizes.
func (sb *StreamingBuilder) FinishCount() error {
	if sb.phase != 0 {
		return fmt.Errorf("graph: StreamingBuilder.FinishCount called twice")
	}
	if sb.counted != sb.m {
		return fmt.Errorf("graph: counting pass saw %d edges, declared %d", sb.counted, sb.m)
	}
	for v := 0; v < sb.n; v++ {
		sb.adjOff[v+1] += sb.adjOff[v]
	}
	sb.adjTo = make([]int32, 2*sb.m)
	sb.adjIdx = make([]int32, 2*sb.m)
	sb.edges = make([]Edge, sb.m)
	if sb.weighted {
		sb.weight = make([]int64, sb.m)
	}
	if sb.signed {
		sb.sign = make([]int8, sb.m)
	}
	sb.cursor = make([]int32, sb.n)
	copy(sb.cursor, sb.adjOff[:sb.n])
	sb.phase = 1
	return nil
}

// Place writes one edge of pass 2 directly into the CSR arrays. Edges must
// arrive in strictly increasing canonical order; w is ignored unless the
// builder is weighted, s unless it is signed.
func (sb *StreamingBuilder) Place(u, v int, w int64, s int8) error {
	if sb.phase != 1 {
		return fmt.Errorf("graph: StreamingBuilder.Place called outside the placement pass")
	}
	if err := sb.checkEndpoints(u, v); err != nil {
		return err
	}
	if u > v {
		u, v = v, u
	}
	if u < sb.lastU || (u == sb.lastU && v <= sb.lastV) {
		return fmt.Errorf("graph: edge {%d,%d} out of order after {%d,%d} (streaming input must be strictly increasing canonical (u,v); use Builder for unsorted input)",
			u, v, sb.lastU, sb.lastV)
	}
	if sb.placed == sb.m {
		return fmt.Errorf("graph: placement pass saw more than the declared %d edges", sb.m)
	}
	idx := sb.placed
	sb.edges[idx] = Edge{U: u, V: v}
	if sb.weighted {
		if w <= 0 {
			return fmt.Errorf("graph: non-positive edge weight %d on {%d,%d}", w, u, v)
		}
		sb.weight[idx] = w
	}
	if sb.signed {
		if s != 1 && s != -1 {
			return fmt.Errorf("graph: invalid edge sign %d on {%d,%d}", s, u, v)
		}
		sb.sign[idx] = s
	}
	// A placement pass that streams different edges than the counting pass
	// would silently spill one row's entries into the next; the row-capacity
	// check turns that into a diagnosable error.
	if sb.cursor[u] >= sb.adjOff[u+1] || sb.cursor[v] >= sb.adjOff[v+1] {
		return fmt.Errorf("graph: edge {%d,%d} overflows a CSR row (placement pass does not match the counting pass)", u, v)
	}
	// Because edges arrive in canonical order, row v receives its lower
	// neighbors first (ascending u), then its higher neighbors (ascending v),
	// so every row comes out sorted.
	sb.adjTo[sb.cursor[u]] = int32(v)
	sb.adjIdx[sb.cursor[u]] = int32(idx)
	sb.cursor[u]++
	sb.adjTo[sb.cursor[v]] = int32(u)
	sb.adjIdx[sb.cursor[v]] = int32(idx)
	sb.cursor[v]++
	sb.placed++
	sb.lastU, sb.lastV = u, v
	return nil
}

// Graph finalizes the builder. It may be called once, after exactly m edges
// have been placed; the builder is unusable afterwards.
func (sb *StreamingBuilder) Graph() (*Graph, error) {
	if sb.phase != 1 {
		return nil, fmt.Errorf("graph: StreamingBuilder.Graph called outside the placement pass")
	}
	if sb.placed != sb.m {
		return nil, fmt.Errorf("graph: placement pass saw %d edges, declared %d", sb.placed, sb.m)
	}
	g := &Graph{
		n:      sb.n,
		adjOff: sb.adjOff,
		adjTo:  sb.adjTo,
		adjIdx: sb.adjIdx,
		edges:  sb.edges,
		weight: sb.weight,
		sign:   sb.sign,
	}
	g.finishStats()
	sb.phase = 2
	return g, nil
}

// assemble builds the graph on n vertices whose edge i is edge(i), for i in
// [0, m), by running both StreamingBuilder passes over it. edge must return
// canonical edges (u < v) in strictly increasing order, the same in both
// passes; w is ignored unless weighted, s unless signed.
func assemble(n, m int, weighted, signed bool, edge func(i int) (u, v int, w int64, s int8)) (*Graph, error) {
	sb, err := NewStreamingBuilder(n, m, weighted, signed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		u, v, _, _ := edge(i)
		if u >= v {
			return nil, fmt.Errorf("graph: edge {%d,%d} is not canonical (u < v)", u, v)
		}
		if err := sb.Count(u, v); err != nil {
			return nil, err
		}
	}
	if err := sb.FinishCount(); err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		if err := sb.Place(edge(i)); err != nil {
			return nil, err
		}
	}
	return sb.Graph()
}

// fromSortedKeys assembles the unweighted graph on n vertices whose edges
// are the packed keys, which must be strictly ascending.
func fromSortedKeys(n int, keys []uint64) (*Graph, error) {
	return assemble(n, len(keys), false, false, func(i int) (int, int, int64, int8) {
		u, v := unpackEdge(keys[i])
		return u, v, 1, 1
	})
}

// packEdge encodes the canonical edge {u, v} (u < v) as a uint64 whose
// numeric order is the canonical (U, V) order.
func packEdge(u, v int) uint64 { return uint64(u)<<32 | uint64(v) }

// unpackEdge is the inverse of packEdge.
func unpackEdge(k uint64) (u, v int) { return int(k >> 32), int(k & math.MaxUint32) }
