package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is an undirected edge with canonical orientation U < V.
type Edge struct {
	U, V int
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
	}
}

// Graph is an immutable simple undirected graph on vertices 0..n-1, stored in
// compressed sparse row (CSR) form: the half-edges of vertex v occupy the
// index range adjOff[v]..adjOff[v+1] of the flat adjTo/adjIdx arrays, sorted
// by ascending neighbor ID. adjIdx carries the undirected edge index shared
// by the two opposite half-edges, so per-edge annotations (weight, sign) are
// one array lookup away from any adjacency scan.
//
// The zero value is the empty graph with no vertices. Use a Builder to create
// non-trivial graphs.
type Graph struct {
	n      int
	adjOff []int32 // n+1 row offsets into adjTo/adjIdx
	adjTo  []int32 // neighbor IDs, ascending within each row
	adjIdx []int32 // undirected edge index per half-edge
	edges  []Edge
	weight []int64 // nil when the graph is unweighted
	sign   []int8  // nil when the graph is unsigned; otherwise +1 or -1 per edge
	maxDeg int     // cached max degree, computed once at build time
	minDeg int     // cached min degree, computed once at build time
	maxW   int64   // cached MaxWeight, computed once at build time
	totalW int64   // cached TotalWeight, computed once at build time
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.adjOff[v+1] - g.adjOff[v]) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph). The
// value is computed once when the graph is assembled, so this is O(1).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// arc returns the i-th half-edge of v as (neighbor, undirected edge index).
func (g *Graph) arc(v, i int) (to, idx int) {
	p := int(g.adjOff[v]) + i
	return int(g.adjTo[p]), int(g.adjIdx[p])
}

// AdjacencyCSR exposes the graph's compressed-sparse-row adjacency: off has
// N()+1 row offsets and to lists each vertex's neighbors ascending, so row v
// is to[off[v]:off[v+1]]. The slices alias the graph's internal arrays and
// MUST NOT be modified; they let iteration-heavy numeric loops (power
// iteration, walk evolution) run over flat arrays without copying or
// per-vertex interface calls.
func (g *Graph) AdjacencyCSR() (off, to []int32) { return g.adjOff, g.adjTo }

// Neighbors returns the neighbors of v in ascending order. The returned slice
// is owned by the caller. Hot paths should prefer ForEachNeighbor or
// NeighborAt, which do not allocate.
func (g *Graph) Neighbors(v int) []int {
	lo, hi := g.adjOff[v], g.adjOff[v+1]
	out := make([]int, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = int(g.adjTo[i])
	}
	return out
}

// NeighborAt returns the i-th neighbor of v (0 ≤ i < Degree(v)), in ascending
// neighbor order, without allocating. It is the cursor-style companion to
// ForEachNeighbor for traversals that need to pause and resume.
func (g *Graph) NeighborAt(v, i int) int {
	return int(g.adjTo[int(g.adjOff[v])+i])
}

// ForEachNeighbor calls fn for every neighbor u of v with the undirected edge
// index, in ascending neighbor order.
func (g *Graph) ForEachNeighbor(v int, fn func(u, edgeIdx int)) {
	for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
		fn(int(g.adjTo[i]), int(g.adjIdx[i]))
	}
}

// Edges returns a copy of the edge list. Edge i has index i for Weight/Sign.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgeAt returns the edge with index idx.
func (g *Graph) EdgeAt(idx int) Edge { return g.edges[idx] }

// HasEdge reports whether {u, v} is an edge of g.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeIndex(u, v)
	return ok
}

// EdgeIndex returns the index of edge {u, v} and whether it exists.
func (g *Graph) EdgeIndex(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return 0, false
	}
	// Binary search the (sorted) adjacency row of the lower-degree endpoint.
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	lo, hi := int(g.adjOff[u]), int(g.adjOff[u+1])
	end, target := hi, int32(v)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.adjTo[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.adjTo[lo] == target {
		return int(g.adjIdx[lo]), true
	}
	return 0, false
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weight != nil }

// Weight returns the weight of edge idx. Unweighted graphs report weight 1
// for every edge so that cardinality problems are the W=1 special case of
// their weighted counterparts, exactly as in the paper.
func (g *Graph) Weight(idx int) int64 {
	if g.weight == nil {
		return 1
	}
	return g.weight[idx]
}

// MaxWeight returns the maximum edge weight W (1 for unweighted graphs with
// at least one edge, 0 for edgeless graphs). Cached at build time, so O(1).
func (g *Graph) MaxWeight() int64 { return g.maxW }

// Signed reports whether the graph carries correlation-clustering edge signs.
func (g *Graph) Signed() bool { return g.sign != nil }

// Sign returns the sign of edge idx: +1 or -1 for signed graphs, +1 otherwise.
func (g *Graph) Sign(idx int) int8 {
	if g.sign == nil {
		return 1
	}
	return g.sign[idx]
}

// TotalWeight returns the sum of all edge weights. Cached at build time, so
// O(1).
func (g *Graph) TotalWeight() int64 { return g.totalW }

// EdgeDensity returns |E|/|V| (0 for an empty graph).
func (g *Graph) EdgeDensity() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.edges)) / float64(g.n)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		n:      g.n,
		maxDeg: g.maxDeg,
		minDeg: g.minDeg,
		maxW:   g.maxW,
		totalW: g.totalW,
	}
	cp.adjOff = append([]int32(nil), g.adjOff...)
	cp.adjTo = append([]int32(nil), g.adjTo...)
	cp.adjIdx = append([]int32(nil), g.adjIdx...)
	cp.edges = append([]Edge(nil), g.edges...)
	if g.weight != nil {
		cp.weight = append([]int64(nil), g.weight...)
	}
	if g.sign != nil {
		cp.sign = append([]int8(nil), g.sign...)
	}
	return cp
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, Δ=%d)", g.n, len(g.edges), g.MaxDegree())
}

// Builder incrementally assembles a Graph from edges added in any order.
// The zero value is unusable; create builders with NewBuilder.
type Builder struct {
	n    int
	adds []keyedEdge // every addition in call order until Graph sorts them
	anyW bool
	anyS bool
}

// keyedEdge is one Builder addition: the packed canonical key of the edge
// with the weight and sign it was added with.
type keyedEdge struct {
	key uint64
	w   int64
	s   int8
}

// NewBuilder returns a Builder for a graph on n vertices. It panics if n < 0.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{n: n}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge adds the undirected edge {u, v} with weight 1 and sign +1.
// Adding an edge again overwrites its weight and sign: the last addition
// wins, and a graph with any weighted addition stays weighted. It panics on
// self-loops and out-of-range endpoints; input paths that cannot trust
// their edges should use TryAddEdge, which reports the same conditions as
// errors.
func (b *Builder) AddEdge(u, v int) { b.add(u, v, 1, 1, false, false) }

// AddWeightedEdge adds {u, v} with the given positive weight. If the edge was
// already present its weight is overwritten.
func (b *Builder) AddWeightedEdge(u, v int, w int64) {
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge weight %d on {%d,%d}", w, u, v))
	}
	b.add(u, v, w, 1, true, false)
}

// AddSignedEdge adds {u, v} with the given sign (+1 or -1) for correlation
// clustering. If the edge was already present its sign is overwritten.
func (b *Builder) AddSignedEdge(u, v int, sign int8) {
	if sign != 1 && sign != -1 {
		panic(fmt.Sprintf("graph: invalid edge sign %d on {%d,%d}", sign, u, v))
	}
	b.add(u, v, 1, sign, false, true)
}

// TryAddEdge is AddEdge with error semantics: negative or out-of-range
// endpoints and self-loops return a wrapped ErrVertexRange/ErrSelfLoop
// instead of panicking deep in CSR assembly. Mutation streams and file
// parsers share this validation path with Overlay.
func (b *Builder) TryAddEdge(u, v int) error { return b.tryAdd(u, v, 1, 1, false, false) }

// TryAddWeightedEdge is AddWeightedEdge with error semantics.
func (b *Builder) TryAddWeightedEdge(u, v int, w int64) error {
	if w <= 0 {
		return fmt.Errorf("graph: non-positive edge weight %d on {%d,%d}", w, u, v)
	}
	return b.tryAdd(u, v, w, 1, true, false)
}

// TryAddSignedEdge is AddSignedEdge with error semantics.
func (b *Builder) TryAddSignedEdge(u, v int, sign int8) error {
	if sign != 1 && sign != -1 {
		return fmt.Errorf("graph: invalid edge sign %d on {%d,%d}", sign, u, v)
	}
	return b.tryAdd(u, v, 1, sign, false, true)
}

func (b *Builder) add(u, v int, w int64, s int8, isWeighted, isSigned bool) {
	if err := b.tryAdd(u, v, w, s, isWeighted, isSigned); err != nil {
		panic(err.Error())
	}
}

func (b *Builder) tryAdd(u, v int, w int64, s int8, isWeighted, isSigned bool) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range for n=%d: %w", u, v, b.n, ErrVertexRange)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d: %w", u, ErrSelfLoop)
	}
	if u > v {
		u, v = v, u
	}
	b.adds = append(b.adds, keyedEdge{key: packEdge(u, v), w: w, s: s})
	b.anyW = b.anyW || isWeighted
	b.anyS = b.anyS || isSigned
	return nil
}

// Graph finalizes the builder into an immutable Graph. The builder remains
// usable (further edges may be added and Graph called again).
//
// Edge indices follow the canonical (U, V) order, so they do not depend on
// the insertion order. The additions are stable-sorted by key, which keeps
// the repeated additions of an edge in call order; the last of each run
// wins. Sorting and deduplicating in place keeps that true for later calls,
// since every later addition follows the ones kept here.
func (b *Builder) Graph() *Graph {
	slices.SortStableFunc(b.adds, func(x, y keyedEdge) int { return cmp.Compare(x.key, y.key) })
	kept := b.adds[:0]
	for i, e := range b.adds {
		if i+1 == len(b.adds) || b.adds[i+1].key != e.key {
			kept = append(kept, e)
		}
	}
	b.adds = kept
	g, err := assemble(b.n, len(kept), b.anyW, b.anyS, func(i int) (int, int, int64, int8) {
		u, v := unpackEdge(kept[i].key)
		return u, v, kept[i].w, kept[i].s
	})
	if err != nil {
		panic(err.Error())
	}
	return g
}

// finishStats fills the cached aggregate fields (max/min degree, max/total
// weight) after the CSR arrays are in place.
func (g *Graph) finishStats() {
	if g.n > 0 {
		g.minDeg = g.Degree(0)
		for v := 0; v < g.n; v++ {
			d := g.Degree(v)
			if d > g.maxDeg {
				g.maxDeg = d
			}
			if d < g.minDeg {
				g.minDeg = d
			}
		}
	}
	if len(g.edges) > 0 {
		g.maxW = 1
		if g.weight != nil {
			g.maxW = g.weight[0]
			for _, w := range g.weight {
				if w > g.maxW {
					g.maxW = w
				}
				g.totalW += w
			}
		} else {
			g.totalW = int64(len(g.edges))
		}
	}
}
