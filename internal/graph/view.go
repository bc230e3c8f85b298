package graph

import (
	"fmt"
	"sort"
)

// G is the read-only graph interface shared by *Graph and *View. Algorithms
// that only inspect a graph (degree scans, neighbor iteration, per-edge
// weights) should accept G so they run on zero-copy views as well as on
// materialized graphs.
//
// Implementations must present vertices 0..N()-1, edge indices 0..M()-1 in
// canonical (U, V)-ascending order, and neighbors in ascending ID order —
// the same contracts Builder establishes for *Graph. Deterministic callers
// (the decomposition recursion, sweep cuts) rely on that iteration order.
type G interface {
	// N returns the number of vertices.
	N() int
	// M returns the number of undirected edges.
	M() int
	// Degree returns the degree of vertex v.
	Degree(v int) int
	// ForEachNeighbor calls fn for every neighbor u of v with the undirected
	// edge index, in ascending neighbor order.
	ForEachNeighbor(v int, fn func(u, edgeIdx int))
	// EdgeAt returns the edge with index idx.
	EdgeAt(idx int) Edge
	// Weight returns the weight of edge idx (1 for unweighted graphs).
	Weight(idx int) int64
	// Sign returns the sign of edge idx (+1 for unsigned graphs).
	Sign(idx int) int8
}

// Compile-time interface checks.
var (
	_ G = (*Graph)(nil)
	_ G = (*View)(nil)
)

// View is a zero-copy subgraph of a base *Graph: a vertex subset plus an
// optional deleted-edge filter, presented with dense local vertex IDs
// 0..N()-1 (assigned in ascending base-ID order) and dense local edge
// indices 0..M()-1 (in canonical local order, which coincides with ascending
// base edge index). It satisfies the same iteration contracts as *Graph, so
// algorithms written against G behave identically on a view and on the
// materialized subgraph.
//
// A view shares the base graph's edge list, weights and signs; only a small
// local adjacency index (O(vertices + kept edges) of int32) is built at
// construction. Views are immutable, safe for concurrent readers, and must
// not outlive their base graph's usefulness: they alias it, so the base must
// not be garbage-collectable state the caller intends to drop while keeping
// the view. Use Materialize to sever the alias.
//
// Views always restrict a materialized *Graph; there is no view-of-a-view.
// Recursive algorithms should carry base vertex IDs (via BaseVertex) and
// re-derive each level's view from the root graph, which is exactly what the
// expander decomposition does.
type View struct {
	base   *Graph
	toOld  []int32 // local vertex -> base vertex, ascending
	voff   []int32 // N()+1 row offsets into vto/vidx
	vto    []int32 // local neighbor IDs, ascending within each row
	vidx   []int32 // local edge index per half-edge
	gedge  []int32 // local edge index -> base edge index, ascending
	maxDeg int
}

// Induce returns the zero-copy view of g induced by the vertex set verts.
// Local vertex IDs are assigned in ascending base-ID order (verts need not
// be sorted); duplicate or out-of-range vertices panic.
func (g *Graph) Induce(verts []int) *View { return g.InduceFiltered(verts, nil) }

// InduceFiltered returns the view of g induced by verts, additionally
// excluding every edge whose (base) index dropEdge reports true for. The
// filter is evaluated once per candidate edge at construction time; later
// mutations of whatever backs dropEdge do not affect the view.
func (g *Graph) InduceFiltered(verts []int, dropEdge func(edgeIdx int) bool) *View {
	k := len(verts)
	toOld := make([]int32, k)
	for i, v := range verts {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: vertex %d out of range for n=%d", v, g.n))
		}
		toOld[i] = int32(v)
	}
	sort.Slice(toOld, func(i, j int) bool { return toOld[i] < toOld[j] })
	for i := 1; i < k; i++ {
		if toOld[i-1] == toOld[i] {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced view", toOld[i]))
		}
	}
	s := &View{base: g, toOld: toOld}
	// Pass 1: count kept edges, walking each member's upper neighbors.
	kept := 0
	for i := 0; i < k; i++ {
		v := toOld[i]
		for a := g.adjOff[v]; a < g.adjOff[v+1]; a++ {
			u := g.adjTo[a]
			if u <= v || localOf(toOld, u) < 0 {
				continue
			}
			if dropEdge != nil && dropEdge(int(g.adjIdx[a])) {
				continue
			}
			kept++
		}
	}
	// Pass 2: collect the kept base edge indices (canonical local order —
	// identical to ascending base index order, since toOld is monotone) and
	// their local endpoints, and accumulate local degrees into the offset
	// array. A kept edge has U = toOld[i] < V = toOld[j], so its endpoints
	// are (i, j).
	s.gedge = make([]int32, 0, kept)
	ends := make([][2]int32, 0, kept)
	s.voff = make([]int32, k+1)
	for i := 0; i < k; i++ {
		v := toOld[i]
		for a := g.adjOff[v]; a < g.adjOff[v+1]; a++ {
			u := g.adjTo[a]
			if u <= v {
				continue
			}
			j := localOf(toOld, u)
			if j < 0 {
				continue
			}
			if dropEdge != nil && dropEdge(int(g.adjIdx[a])) {
				continue
			}
			s.gedge = append(s.gedge, g.adjIdx[a])
			ends = append(ends, [2]int32{int32(i), int32(j)})
			s.voff[i+1]++
			s.voff[j+1]++
		}
	}
	for i := 0; i < k; i++ {
		s.voff[i+1] += s.voff[i]
	}
	// Pass 3: place both half-edges of every kept edge. As in Builder, the
	// canonical edge order makes every row come out sorted by neighbor ID.
	s.vto = make([]int32, 2*kept)
	s.vidx = make([]int32, 2*kept)
	cursor := make([]int32, k)
	copy(cursor, s.voff[:k])
	for localIdx, e := range ends {
		li, lj := e[0], e[1]
		s.vto[cursor[li]] = lj
		s.vidx[cursor[li]] = int32(localIdx)
		cursor[li]++
		s.vto[cursor[lj]] = li
		s.vidx[cursor[lj]] = int32(localIdx)
		cursor[lj]++
	}
	for i := 0; i < k; i++ {
		s.maxDeg = max(s.maxDeg, s.Degree(i))
	}
	return s
}

// localOf returns the position of base vertex u in the sorted toOld slice,
// or -1 if u is not in the view.
func localOf(toOld []int32, u int32) int {
	lo, hi := 0, len(toOld)
	for lo < hi {
		mid := (lo + hi) / 2
		if toOld[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(toOld) && toOld[lo] == u {
		return lo
	}
	return -1
}

// N returns the number of vertices in the view.
func (s *View) N() int { return len(s.toOld) }

// M returns the number of edges in the view.
func (s *View) M() int { return len(s.gedge) }

// Degree returns the degree of local vertex v within the view.
func (s *View) Degree(v int) int { return int(s.voff[v+1] - s.voff[v]) }

// MaxDegree returns the maximum view degree (0 for an empty view), cached at
// construction.
func (s *View) MaxDegree() int { return s.maxDeg }

// ForEachNeighbor calls fn for every view neighbor u of local vertex v with
// the local edge index, in ascending local-neighbor order.
func (s *View) ForEachNeighbor(v int, fn func(u, edgeIdx int)) {
	for i := s.voff[v]; i < s.voff[v+1]; i++ {
		fn(int(s.vto[i]), int(s.vidx[i]))
	}
}

// AdjacencyCSR exposes the view's local compressed-sparse-row adjacency with
// the same layout and aliasing rules as (*Graph).AdjacencyCSR: read-only,
// row v is to[off[v]:off[v+1]] in ascending local-neighbor order.
func (s *View) AdjacencyCSR() (off, to []int32) { return s.voff, s.vto }

// Neighbors returns the view neighbors of local vertex v in ascending order.
// The returned slice is owned by the caller.
func (s *View) Neighbors(v int) []int {
	lo, hi := s.voff[v], s.voff[v+1]
	out := make([]int, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = int(s.vto[i])
	}
	return out
}

// EdgeAt returns the edge with local index idx, in local vertex IDs.
func (s *View) EdgeAt(idx int) Edge {
	e := s.base.edges[s.gedge[idx]]
	return Edge{U: localOf(s.toOld, int32(e.U)), V: localOf(s.toOld, int32(e.V))}
}

// EdgeIndex returns the local index of edge {u, v} and whether it exists in
// the view (u, v are local vertex IDs).
func (s *View) EdgeIndex(u, v int) (int, bool) {
	if u < 0 || u >= s.N() || v < 0 || v >= s.N() || u == v {
		return 0, false
	}
	if s.Degree(v) < s.Degree(u) {
		u, v = v, u
	}
	lo, hi := int(s.voff[u]), int(s.voff[u+1])
	end, target := hi, int32(v)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.vto[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && s.vto[lo] == target {
		return int(s.vidx[lo]), true
	}
	return 0, false
}

// HasEdge reports whether the view contains the edge {u, v} (local IDs).
func (s *View) HasEdge(u, v int) bool {
	_, ok := s.EdgeIndex(u, v)
	return ok
}

// Weight returns the weight of local edge idx, read from the base graph.
func (s *View) Weight(idx int) int64 { return s.base.Weight(int(s.gedge[idx])) }

// Sign returns the sign of local edge idx, read from the base graph.
func (s *View) Sign(idx int) int8 { return s.base.Sign(int(s.gedge[idx])) }

// Weighted reports whether the view carries edge weights: true when the base
// graph is weighted and at least one edge survives, matching what
// materializing the view through a Builder would report.
func (s *View) Weighted() bool { return len(s.gedge) > 0 && s.base.Weighted() }

// Signed reports whether the view carries edge signs, with the same
// edge-survival rule as Weighted.
func (s *View) Signed() bool { return len(s.gedge) > 0 && s.base.Signed() }

// BaseVertex returns the base-graph ID of local vertex v.
func (s *View) BaseVertex(v int) int { return int(s.toOld[v]) }

// BaseVertices returns the local-to-base vertex mapping as a fresh slice,
// the same mapping Materialize returns alongside its copy.
func (s *View) BaseVertices() []int {
	out := make([]int, len(s.toOld))
	for i, v := range s.toOld {
		out[i] = int(v)
	}
	return out
}

// BaseEdge returns the base-graph edge index of local edge idx.
func (s *View) BaseEdge(idx int) int { return int(s.gedge[idx]) }

// BFS runs a breadth-first search from local vertex src within the view.
func (s *View) BFS(src int) (dist, parent []int) { return BFSOf(s, src) }

// Diameter returns the exact diameter of the view (per component, maximum).
func (s *View) Diameter() int { return DiameterOf(s) }

// Connected reports whether the view is connected.
func (s *View) Connected() bool { return ConnectedOf(s) }

// Components returns the connected components of the view in local IDs,
// each sorted ascending, ordered by smallest contained vertex.
func (s *View) Components() [][]int { return ComponentsOf(s) }

// Materialize builds the standalone *Graph equivalent to this view, plus the
// local-to-base vertex mapping: local vertex IDs, canonical edge order,
// weights and signs, as a Builder would produce them from the surviving
// edges. Use it when the subgraph must outlive the base graph or be mutated
// into a new Builder lineage.
func (s *View) Materialize() (*Graph, []int) {
	b := NewBuilder(s.N())
	for _, gi := range s.gedge {
		e := s.base.edges[gi]
		u := localOf(s.toOld, int32(e.U))
		v := localOf(s.toOld, int32(e.V))
		switch {
		case s.base.weight != nil:
			b.AddWeightedEdge(u, v, s.base.weight[gi])
		case s.base.sign != nil:
			b.AddSignedEdge(u, v, s.base.sign[gi])
		default:
			b.AddEdge(u, v)
		}
	}
	return b.Graph(), s.BaseVertices()
}

// String implements fmt.Stringer with a short structural summary.
func (s *View) String() string {
	return fmt.Sprintf("View(n=%d, m=%d, base=%d)", s.N(), s.M(), s.base.N())
}
