package graph

import "fmt"

// This file keeps the materializing subgraph copies that views replaced, as
// the naive reference the view tests, FuzzViewEquivalence and
// BenchmarkInducedSubgraphCopy compare against: each builds a fresh *Graph
// through a Builder, with map-based vertex and edge sets.

// inducedSubgraph returns the subgraph of g induced by the vertex set verts,
// along with the mapping from new vertex IDs (0..len(verts)-1) back to the
// original IDs. Weights and signs are preserved. Duplicate vertices in verts
// panic.
func inducedSubgraph(g *Graph, verts []int) (*Graph, []int) {
	toNew := make(map[int]int, len(verts))
	toOld := make([]int, len(verts))
	for i, v := range verts {
		if _, dup := toNew[v]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced subgraph", v))
		}
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: vertex %d out of range for n=%d", v, g.n))
		}
		toNew[v] = i
		toOld[i] = v
	}
	b := NewBuilder(len(verts))
	for i, v := range toOld {
		g.ForEachNeighbor(v, func(to, idx int) {
			j, ok := toNew[to]
			if !ok || j <= i {
				return
			}
			switch {
			case g.weight != nil:
				b.AddWeightedEdge(i, j, g.weight[idx])
			case g.sign != nil:
				b.AddSignedEdge(i, j, g.sign[idx])
			default:
				b.AddEdge(i, j)
			}
		})
	}
	return b.Graph(), toOld
}

// subgraphFromEdgeSet returns the graph on the same vertex set containing
// exactly the edges whose indices are in keep.
func subgraphFromEdgeSet(g *Graph, keep map[int]bool) *Graph {
	b := NewBuilder(g.n)
	for idx, e := range g.edges {
		if !keep[idx] {
			continue
		}
		switch {
		case g.weight != nil:
			b.AddWeightedEdge(e.U, e.V, g.weight[idx])
		case g.sign != nil:
			b.AddSignedEdge(e.U, e.V, g.sign[idx])
		default:
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Graph()
}

// removeEdges returns the graph on the same vertex set with the edges whose
// indices appear in drop removed.
func removeEdges(g *Graph, drop map[int]bool) *Graph {
	keep := make(map[int]bool, len(g.edges))
	for idx := range g.edges {
		if !drop[idx] {
			keep[idx] = true
		}
	}
	return subgraphFromEdgeSet(g, keep)
}
