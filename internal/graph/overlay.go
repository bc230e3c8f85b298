package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mutation errors returned by Overlay operations. They are wrapped with the
// offending endpoints, so test with errors.Is.
var (
	// ErrEdgeExists is returned when adding an edge that is already present.
	ErrEdgeExists = errors.New("edge already present")
	// ErrEdgeMissing is returned when deleting an edge that is not present.
	ErrEdgeMissing = errors.New("no such edge")
	// ErrVertexRange is returned for endpoints outside [0, N()).
	ErrVertexRange = errors.New("vertex out of range")
	// ErrVertexDeleted is returned for operations on a tombstoned vertex.
	ErrVertexDeleted = errors.New("vertex deleted")
	// ErrSelfLoop is returned when adding an edge {v, v}.
	ErrSelfLoop = errors.New("self-loop")
)

// Overlay is a mutable delta layer over an immutable base graph (*Graph,
// *View, or an mmap-backed graph — anything satisfying G). It implements the
// full G interface itself, presenting exactly the graph that Compact would
// materialize: same vertex IDs, same canonical edge order, same edge indices,
// weights and signs. Algorithms written against G therefore behave
// identically on the overlay and on its compacted form; FuzzOverlayEquivalence
// pins that byte-for-byte.
//
// Deltas are stored as a tombstone bitmap over base edges plus sorted
// per-row insert lists, so reads merge two sorted streams:
//
//   - edge deletions tombstone the base edge (dead bitmap); deleting an
//     inserted edge removes it from the insert set;
//   - edge insertions land in a sorted key array (canonical u<<32|v) with
//     per-vertex sorted neighbor rows for O(row) adjacency merges;
//   - re-adding a tombstoned base edge resurrects it with the weight/sign of
//     the new operation (recorded as an override);
//   - vertex additions extend the dense ID space at the top;
//   - vertex deletions isolate: incident edges are deleted and the ID is
//     tombstoned (further operations on it fail), but the ID itself stays, so
//     vertex IDs remain dense 0..N()-1 and positional state keyed by vertex
//     (assignments, leader tables) survives churn without remapping.
//
// Global edge indices stay canonical under mutation: edge idx is the idx-th
// live edge in (U, V) order, computed from lazily maintained rank arrays
// (live-base-edges-before and inserts-before prefix counts). Degree is O(1),
// neighbor iteration is O(deg) amortized plus O(log inserts) per inserted
// neighbor, and EdgeAt/Weight/Sign are O(log m). That overhead is the price
// of mutability — hot read loops should Compact first.
//
// An Overlay is NOT safe for concurrent use: mutations and reads (which may
// rebuild the lazy rank arrays) must be externally serialized. The serving
// path never shares one — it builds an overlay off to the side, compacts,
// and hot-swaps the immutable result.
type Overlay struct {
	base  G
	baseN int
	baseM int
	n     int

	dead      []bool // tombstone per base edge
	deadCount int
	deadV     []bool // tombstone per vertex (deleted = isolated, ID retained)

	insKeys []uint64  // canonical u<<32|v keys of inserted edges, sorted
	insW    []int64   // weight per inserted edge (1 when unweighted)
	insS    []int8    // sign per inserted edge (+1 when unsigned)
	insRow  [][]int32 // per-vertex sorted inserted-neighbor lists (both directions)

	deg []int32 // maintained degree per vertex

	overW map[int32]int64 // weight overrides for resurrected base edges
	overS map[int32]int8  // sign overrides for resurrected base edges

	weighted bool
	signed   bool

	// Lazily rebuilt rank arrays (rankDirty set by every mutation).
	rankDirty     bool
	aliveBefore   []int32 // len baseM+1: live base edges with index < i
	insBeforeBase []int32 // len baseM+1: inserts with key < key(base edge i)
	insGlobal     []int32 // per insert: its global (canonical) edge index
}

// Compile-time interface check: an overlay is a full graph.G.
var _ G = (*Overlay)(nil)

// NewOverlay returns an empty delta layer over base. The base graph must not
// be mutated (none of the G implementations can be) and must outlive the
// overlay; the overlay aliases it and copies nothing but the degree array.
func NewOverlay(base G) *Overlay {
	n, m := base.N(), base.M()
	o := &Overlay{
		base:      base,
		baseN:     n,
		baseM:     m,
		n:         n,
		dead:      make([]bool, m),
		deadV:     make([]bool, n),
		deg:       make([]int32, n),
		insRow:    make([][]int32, n),
		rankDirty: true,
	}
	for v := 0; v < n; v++ {
		o.deg[v] = int32(base.Degree(v))
	}
	type annotated interface {
		Weighted() bool
		Signed() bool
	}
	if a, ok := base.(annotated); ok {
		o.weighted, o.signed = a.Weighted(), a.Signed()
	}
	return o
}

// Base returns the immutable graph the overlay layers over.
func (o *Overlay) Base() G { return o.base }

// N returns the current number of vertices (base plus added; deleted vertex
// IDs are retained as isolated tombstones, so IDs stay dense).
func (o *Overlay) N() int { return o.n }

// M returns the current number of live edges.
func (o *Overlay) M() int { return o.baseM - o.deadCount + len(o.insKeys) }

// Degree returns the live degree of vertex v in O(1).
func (o *Overlay) Degree(v int) int { return int(o.deg[v]) }

// Weighted reports whether the overlay carries edge weights (inherited from
// the base, or acquired by the first weighted insertion).
func (o *Overlay) Weighted() bool { return o.weighted }

// Signed reports whether the overlay carries edge signs.
func (o *Overlay) Signed() bool { return o.signed }

// ensureRank rebuilds the lazy rank arrays after a mutation: one linear merge
// walk over base edges and insert keys fills aliveBefore (live base edges
// before each base index), insBeforeBase (inserts sorting before each base
// edge), and insGlobal (each insert's global edge index).
func (o *Overlay) ensureRank() {
	if !o.rankDirty {
		return
	}
	if o.aliveBefore == nil {
		o.aliveBefore = make([]int32, o.baseM+1)
		o.insBeforeBase = make([]int32, o.baseM+1)
	}
	if cap(o.insGlobal) < len(o.insKeys) {
		o.insGlobal = make([]int32, len(o.insKeys))
	}
	o.insGlobal = o.insGlobal[:len(o.insKeys)]
	live := int32(0)
	p := 0
	for bi := 0; bi < o.baseM; bi++ {
		e := o.base.EdgeAt(bi)
		k := packEdge(e.U, e.V)
		for p < len(o.insKeys) && o.insKeys[p] < k {
			o.insGlobal[p] = int32(p) + live
			p++
		}
		o.aliveBefore[bi] = live
		o.insBeforeBase[bi] = int32(p)
		if !o.dead[bi] {
			live++
		}
	}
	for ; p < len(o.insKeys); p++ {
		o.insGlobal[p] = int32(p) + live
	}
	o.aliveBefore[o.baseM] = live
	o.insBeforeBase[o.baseM] = int32(len(o.insKeys))
	o.rankDirty = false
}

// findIns returns the position of key in insKeys, or -1.
func (o *Overlay) findIns(key uint64) int {
	p := sort.Search(len(o.insKeys), func(i int) bool { return o.insKeys[i] >= key })
	if p < len(o.insKeys) && o.insKeys[p] == key {
		return p
	}
	return -1
}

// baseEdgeIndex locates the canonical edge {u, v} (u < v) in the base graph
// (live or tombstoned).
func (o *Overlay) baseEdgeIndex(u, v int) (int, bool) {
	if u >= o.baseN || v >= o.baseN {
		return 0, false
	}
	if g, ok := o.base.(*Graph); ok {
		return g.EdgeIndex(u, v)
	}
	k := packEdge(u, v)
	bi := sort.Search(o.baseM, func(i int) bool {
		e := o.base.EdgeAt(i)
		return packEdge(e.U, e.V) >= k
	})
	if bi < o.baseM {
		if e := o.base.EdgeAt(bi); packEdge(e.U, e.V) == k {
			return bi, true
		}
	}
	return 0, false
}

// resolve maps a global edge index to either an insert position (isIns true)
// or a base edge index.
func (o *Overlay) resolve(idx int) (bi, p int, isIns bool) {
	o.ensureRank()
	p = sort.Search(len(o.insGlobal), func(i int) bool { return int(o.insGlobal[i]) >= idx })
	if p < len(o.insGlobal) && int(o.insGlobal[p]) == idx {
		return 0, p, true
	}
	// idx is the r-th live base edge, where r counts out the p inserts that
	// sort before it.
	r := idx - p
	bi = sort.Search(o.baseM, func(i int) bool { return int(o.aliveBefore[i+1]) > r })
	return bi, 0, false
}

// EdgeAt returns the edge with global index idx in canonical order.
func (o *Overlay) EdgeAt(idx int) Edge {
	bi, p, isIns := o.resolve(idx)
	if isIns {
		u, v := unpackEdge(o.insKeys[p])
		return Edge{U: u, V: v}
	}
	return o.base.EdgeAt(bi)
}

// Weight returns the weight of global edge idx (1 for unweighted overlays).
func (o *Overlay) Weight(idx int) int64 {
	bi, p, isIns := o.resolve(idx)
	if isIns {
		return o.insW[p]
	}
	if w, ok := o.overW[int32(bi)]; ok {
		return w
	}
	return o.base.Weight(bi)
}

// Sign returns the sign of global edge idx (+1 for unsigned overlays).
func (o *Overlay) Sign(idx int) int8 {
	bi, p, isIns := o.resolve(idx)
	if isIns {
		return o.insS[p]
	}
	if s, ok := o.overS[int32(bi)]; ok {
		return s
	}
	return o.base.Sign(bi)
}

// ForEachNeighbor calls fn for every live neighbor u of v with the global
// edge index, in ascending neighbor order — the same contract as *Graph,
// produced by merging the base adjacency row (tombstones skipped) with the
// sorted insert row.
func (o *Overlay) ForEachNeighbor(v int, fn func(u, edgeIdx int)) {
	o.ensureRank()
	row := o.insRow[v]
	ri := 0
	emitIns := func(limit int32) {
		for ri < len(row) && row[ri] < limit {
			u := int(row[ri])
			p := o.findIns(packEdge(min(u, v), max(u, v)))
			fn(u, int(o.insGlobal[p]))
			ri++
		}
	}
	if v < o.baseN {
		o.base.ForEachNeighbor(v, func(u, bi int) {
			if o.dead[bi] {
				return
			}
			emitIns(int32(u))
			fn(u, int(o.aliveBefore[bi]+o.insBeforeBase[bi]))
		})
	}
	emitIns(int32(o.n))
}

// HasEdge reports whether {u, v} is a live edge of the overlay.
func (o *Overlay) HasEdge(u, v int) bool {
	if u < 0 || u >= o.n || v < 0 || v >= o.n || u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	if bi, ok := o.baseEdgeIndex(u, v); ok {
		return !o.dead[bi]
	}
	return o.findIns(packEdge(u, v)) >= 0
}

// checkPair validates the endpoints of a mutation.
func (o *Overlay) checkPair(u, v int) error {
	if u < 0 || u >= o.n || v < 0 || v >= o.n {
		return fmt.Errorf("graph: edge {%d,%d} for n=%d: %w", u, v, o.n, ErrVertexRange)
	}
	if u == v {
		return fmt.Errorf("graph: edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	if o.deadV[u] {
		return fmt.Errorf("graph: vertex %d: %w", u, ErrVertexDeleted)
	}
	if o.deadV[v] {
		return fmt.Errorf("graph: vertex %d: %w", v, ErrVertexDeleted)
	}
	return nil
}

// AddEdge inserts the undirected edge {u, v} with weight 1 and sign +1.
// Unlike Builder.AddEdge it never panics: out-of-range endpoints, self-loops,
// tombstoned vertices and duplicate edges all return wrapped sentinel errors,
// which is what lets mutation streams from untrusted input share one
// validation path.
func (o *Overlay) AddEdge(u, v int) error { return o.addEdge(u, v, 1, false) }

// AddWeightedEdge inserts {u, v} with the given positive weight.
func (o *Overlay) AddWeightedEdge(u, v int, w int64) error {
	if w <= 0 {
		return fmt.Errorf("graph: non-positive edge weight %d on {%d,%d}", w, u, v)
	}
	return o.addEdge(u, v, w, true)
}

// addEdge inserts {u, v} with weight w and sign +1; isW marks a weighted
// insert.
func (o *Overlay) addEdge(u, v int, w int64, isW bool) error {
	if err := o.checkPair(u, v); err != nil {
		return err
	}
	if u > v {
		u, v = v, u
	}
	if bi, ok := o.baseEdgeIndex(u, v); ok {
		if !o.dead[bi] {
			return fmt.Errorf("graph: edge {%d,%d}: %w", u, v, ErrEdgeExists)
		}
		// Resurrect the tombstoned base edge with the weight/sign of this
		// operation, exactly as a fresh insert would carry them.
		o.dead[bi] = false
		o.deadCount--
		o.setOverride(bi, w)
		o.deg[u]++
		o.deg[v]++
		o.weighted = o.weighted || isW
		o.rankDirty = true
		return nil
	}
	if o.M() >= math.MaxInt32/2 {
		return fmt.Errorf("graph: edge {%d,%d}: m=%d exceeds the CSR int32 index range", u, v, o.M())
	}
	key := packEdge(u, v)
	p := sort.Search(len(o.insKeys), func(i int) bool { return o.insKeys[i] >= key })
	if p < len(o.insKeys) && o.insKeys[p] == key {
		return fmt.Errorf("graph: edge {%d,%d}: %w", u, v, ErrEdgeExists)
	}
	o.insKeys = append(o.insKeys, 0)
	copy(o.insKeys[p+1:], o.insKeys[p:])
	o.insKeys[p] = key
	o.insW = append(o.insW, 0)
	copy(o.insW[p+1:], o.insW[p:])
	o.insW[p] = w
	o.insS = append(o.insS, 0)
	copy(o.insS[p+1:], o.insS[p:])
	o.insS[p] = 1
	o.insRow[u] = insRowInsert(o.insRow[u], int32(v))
	o.insRow[v] = insRowInsert(o.insRow[v], int32(u))
	o.deg[u]++
	o.deg[v]++
	o.weighted = o.weighted || isW
	o.rankDirty = true
	return nil
}

// setOverride records (or clears) the weight and sign overrides of a
// resurrected base edge so it reads back with weight w and sign +1, the
// values of the re-adding operation.
func (o *Overlay) setOverride(bi int, w int64) {
	if w != o.base.Weight(bi) {
		if o.overW == nil {
			o.overW = make(map[int32]int64)
		}
		o.overW[int32(bi)] = w
	} else {
		delete(o.overW, int32(bi))
	}
	if o.base.Sign(bi) != 1 {
		if o.overS == nil {
			o.overS = make(map[int32]int8)
		}
		o.overS[int32(bi)] = 1
	} else {
		delete(o.overS, int32(bi))
	}
}

// DeleteEdge removes the edge {u, v}: base edges are tombstoned, inserted
// edges are removed from the insert set. Returns ErrEdgeMissing (wrapped) if
// the edge is not live.
func (o *Overlay) DeleteEdge(u, v int) error {
	if err := o.checkPair(u, v); err != nil {
		return err
	}
	if u > v {
		u, v = v, u
	}
	if bi, ok := o.baseEdgeIndex(u, v); ok {
		if o.dead[bi] {
			return fmt.Errorf("graph: edge {%d,%d}: %w", u, v, ErrEdgeMissing)
		}
		o.dead[bi] = true
		o.deadCount++
		delete(o.overW, int32(bi))
		delete(o.overS, int32(bi))
		o.deg[u]--
		o.deg[v]--
		o.rankDirty = true
		return nil
	}
	p := o.findIns(packEdge(u, v))
	if p < 0 {
		return fmt.Errorf("graph: edge {%d,%d}: %w", u, v, ErrEdgeMissing)
	}
	o.insKeys = append(o.insKeys[:p], o.insKeys[p+1:]...)
	o.insW = append(o.insW[:p], o.insW[p+1:]...)
	o.insS = append(o.insS[:p], o.insS[p+1:]...)
	o.insRow[u] = insRowDelete(o.insRow[u], int32(v))
	o.insRow[v] = insRowDelete(o.insRow[v], int32(u))
	o.deg[u]--
	o.deg[v]--
	o.rankDirty = true
	return nil
}

// AddVertex appends a fresh isolated vertex and returns its ID. Vertex IDs
// are dense and never reused.
func (o *Overlay) AddVertex() int {
	if o.n >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: n=%d exceeds the CSR int32 index range", o.n))
	}
	o.deg = append(o.deg, 0)
	o.insRow = append(o.insRow, nil)
	o.deadV = append(o.deadV, false)
	o.n++
	return o.n - 1
}

// DeleteVertex tombstones vertex v: every incident live edge is deleted and
// further operations naming v fail with ErrVertexDeleted. The ID itself is
// retained (as an isolated vertex, including after Compact) so vertex IDs
// stay dense and positional per-vertex state survives churn.
func (o *Overlay) DeleteVertex(v int) error {
	if v < 0 || v >= o.n {
		return fmt.Errorf("graph: vertex %d for n=%d: %w", v, o.n, ErrVertexRange)
	}
	if o.deadV[v] {
		return fmt.Errorf("graph: vertex %d: %w", v, ErrVertexDeleted)
	}
	var nbrs []int
	o.ForEachNeighbor(v, func(u, _ int) { nbrs = append(nbrs, u) })
	for _, u := range nbrs {
		if err := o.DeleteEdge(v, u); err != nil {
			return err
		}
	}
	o.deadV[v] = true
	return nil
}

// insRowInsert inserts u into the sorted row, keeping it sorted.
func insRowInsert(row []int32, u int32) []int32 {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = u
	return row
}

// insRowDelete removes u from the sorted row.
func insRowDelete(row []int32, u int32) []int32 {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
	if i < len(row) && row[i] == u {
		row = append(row[:i], row[i+1:]...)
	}
	return row
}

// ForEachDeleted calls fn for every tombstoned base edge with its base edge
// index, in ascending index order. Incremental decomposition uses this to
// find clusters whose certificate lost an edge.
func (o *Overlay) ForEachDeleted(fn func(baseIdx int, e Edge)) {
	for bi := 0; bi < o.baseM; bi++ {
		if o.dead[bi] {
			fn(bi, o.base.EdgeAt(bi))
		}
	}
}

// ForEachInserted calls fn for every inserted edge in canonical order.
func (o *Overlay) ForEachInserted(fn func(e Edge, w int64, s int8)) {
	for p, k := range o.insKeys {
		u, v := unpackEdge(k)
		fn(Edge{U: u, V: v}, o.insW[p], o.insS[p])
	}
}

// forEachLive streams every live edge in canonical order with its resolved
// weight and sign — the merge that both Compact passes run.
func (o *Overlay) forEachLive(fn func(u, v int, w int64, s int8) error) error {
	p := 0
	emitIns := func(limit uint64) error {
		for p < len(o.insKeys) && o.insKeys[p] < limit {
			u, v := unpackEdge(o.insKeys[p])
			if err := fn(u, v, o.insW[p], o.insS[p]); err != nil {
				return err
			}
			p++
		}
		return nil
	}
	for bi := 0; bi < o.baseM; bi++ {
		if o.dead[bi] {
			continue
		}
		e := o.base.EdgeAt(bi)
		if err := emitIns(packEdge(e.U, e.V)); err != nil {
			return err
		}
		w, s := o.base.Weight(bi), o.base.Sign(bi)
		if ow, ok := o.overW[int32(bi)]; ok {
			w = ow
		}
		if os, ok := o.overS[int32(bi)]; ok {
			s = os
		}
		if err := fn(e.U, e.V, w, s); err != nil {
			return err
		}
	}
	return emitIns(math.MaxUint64)
}

// Compact materializes the overlay into a standalone canonical *Graph via
// the streaming builder: one counting and one placing merge over the live
// base edges and the insert set, both already in canonical order, so the
// result is bit-identical to rebuilding from scratch with Builder. The
// overlay remains usable (it still layers over the old base); callers that
// keep mutating should start a fresh overlay over the returned graph.
func (o *Overlay) Compact() (*Graph, error) {
	sb, err := NewStreamingBuilder(o.n, o.M(), o.weighted, o.signed)
	if err != nil {
		return nil, err
	}
	if err := o.forEachLive(func(u, v int, _ int64, _ int8) error {
		return sb.Count(u, v)
	}); err != nil {
		return nil, err
	}
	if err := sb.FinishCount(); err != nil {
		return nil, err
	}
	if err := o.forEachLive(sb.Place); err != nil {
		return nil, err
	}
	return sb.Graph()
}

// String implements fmt.Stringer with a short structural summary.
func (o *Overlay) String() string {
	return fmt.Sprintf("Overlay(n=%d, m=%d, +%d/-%d over base m=%d)",
		o.n, o.M(), len(o.insKeys), o.deadCount, o.baseM)
}

// OpKind enumerates overlay mutation operations.
type OpKind uint8

// The mutation operation kinds.
const (
	// OpAddEdge inserts edge {U, V}; W > 0 makes it a weighted insert.
	OpAddEdge OpKind = iota
	// OpDeleteEdge removes edge {U, V}.
	OpDeleteEdge
	// OpAddVertex appends one fresh vertex (U, V unused).
	OpAddVertex
	// OpDeleteVertex tombstones vertex U (V unused).
	OpDeleteVertex
)

// String returns the op kind's verb in a POST /mutate batch.
func (k OpKind) String() string {
	switch k {
	case OpAddEdge:
		return "+"
	case OpDeleteEdge:
		return "-"
	case OpAddVertex:
		return "+v"
	case OpDeleteVertex:
		return "-v"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one graph mutation, the unit of churn streams and /mutate batches.
type Op struct {
	Kind OpKind
	U, V int
	W    int64 // edge weight for OpAddEdge; 0 means an unweighted insert
}

// Apply performs one operation on the overlay, returning a validation error
// (wrapping the sentinel errors above) without mutating anything on failure.
func (o *Overlay) Apply(op Op) error {
	switch op.Kind {
	case OpAddEdge:
		if op.W != 0 {
			return o.AddWeightedEdge(op.U, op.V, op.W)
		}
		return o.AddEdge(op.U, op.V)
	case OpDeleteEdge:
		return o.DeleteEdge(op.U, op.V)
	case OpAddVertex:
		o.AddVertex()
		return nil
	case OpDeleteVertex:
		return o.DeleteVertex(op.U)
	default:
		return fmt.Errorf("graph: unknown op kind %d", op.Kind)
	}
}

// ApplyAll applies ops in order, stopping at the first failure. It returns
// the number of operations applied and, on failure, an error identifying the
// offending op index. Previously applied operations are NOT rolled back;
// batch callers that need atomicity apply to a scratch overlay first.
func (o *Overlay) ApplyAll(ops []Op) (int, error) {
	for i, op := range ops {
		if err := o.Apply(op); err != nil {
			return i, fmt.Errorf("op %d (%s %d %d): %w", i, op.Kind, op.U, op.V, err)
		}
	}
	return len(ops), nil
}
