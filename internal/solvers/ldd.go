package solvers

import (
	"math"
	"math/rand"
	"sort"

	"expandergap/internal/graph"
)

// LDDResult is a low-diameter decomposition (Theorem 1.5): a vertex
// partition with few inter-cluster edges and small per-cluster diameter.
type LDDResult struct {
	// Labels assigns each vertex a cluster label.
	Labels []int
	// CutEdges counts inter-cluster edges.
	CutEdges int
	// MaxDiameter is the largest induced-cluster diameter.
	MaxDiameter int
}

// LowDiameterDecomposition computes an (ε, D) low-diameter decomposition
// with D = O(1/ε) on minor-free graphs, using KPR-style iterated BFS
// chopping: `levels` rounds of partitioning every current piece into BFS
// bands of width Θ(1/ε) with a random offset. Each chopping round cuts an
// expected O(ε/levels) fraction of edges, and on an H-minor-free graph
// O(|H|) rounds leave pieces of diameter O(|H|²/ε) — the classical
// Klein–Plotkin–Rao argument that Theorem 1.5 sharpens. levels defaults to
// 3 when 0 (the planar/K5-free setting).
func LowDiameterDecomposition(g *graph.Graph, eps float64, levels int, rng *rand.Rand) LDDResult {
	n := g.N()
	if eps <= 0 {
		eps = 0.1
	}
	if eps > 1 {
		eps = 1
	}
	if levels <= 0 {
		levels = 3
	}
	// The band width is ⌊levels/ε⌋ + 1, saturated at math.MaxInt: for a tiny
	// ε the quotient exceeds every int, and its conversion would be
	// undefined.
	width := math.MaxInt
	if w := float64(levels) / eps; w < math.MaxInt {
		width = int(w) + 1
	}
	labels := make([]int, n)
	pieces := [][]int{}
	if n > 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		pieces = append(pieces, all)
	}
	for round := 0; round < levels; round++ {
		var next [][]int
		for _, piece := range pieces {
			next = append(next, chopPiece(g, piece, width, rng)...)
		}
		pieces = next
	}
	for id, piece := range pieces {
		for _, v := range piece {
			labels[v] = id
		}
	}
	res := LDDResult{Labels: labels}
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if labels[e.U] != labels[e.V] {
			res.CutEdges++
		}
	}
	for _, piece := range pieces {
		sub := g.Induce(piece)
		if d := sub.Diameter(); d > res.MaxDiameter {
			res.MaxDiameter = d
		}
	}
	return res
}

// chopPiece BFS-chops one piece into bands of the given width with a random
// offset, then splits each band into its connected components (pieces must
// stay connected to keep diameters meaningful).
func chopPiece(g *graph.Graph, piece []int, width int, rng *rand.Rand) [][]int {
	if len(piece) <= 1 {
		return [][]int{piece}
	}
	in := make(map[int]bool, len(piece))
	for _, v := range piece {
		in[v] = true
	}
	// BFS from the first vertex, restricted to the piece; separate
	// connected parts handled by restarting.
	dist := make(map[int]int, len(piece))
	var comps [][]int
	for _, root := range piece {
		if _, seen := dist[root]; seen {
			continue
		}
		dist[root] = 0
		queue := []int{root}
		order := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			g.ForEachNeighbor(v, func(u, _ int) {
				if !in[u] {
					return
				}
				if _, seen := dist[u]; !seen {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
					order = append(order, u)
				}
			})
		}
		comps = append(comps, order)
	}
	offset := rng.Intn(width)
	var out [][]int
	for _, comp := range comps {
		// Band index per vertex.
		bands := make(map[int][]int)
		for _, v := range comp {
			b := (dist[v] + offset) / width
			bands[b] = append(bands[b], v)
		}
		// Emit bands in ascending index order: the piece order feeds the
		// next chopping round's rng draws, so map-iteration order here
		// would make the whole decomposition nondeterministic.
		idx := make([]int, 0, len(bands))
		for b := range bands {
			idx = append(idx, b)
		}
		sort.Ints(idx)
		for _, b := range idx {
			// Split each band into connected components.
			out = append(out, connectedParts(g, bands[b])...)
		}
	}
	return out
}

// connectedParts splits a vertex set into connected components of its
// induced subgraph, returning original vertex IDs.
func connectedParts(g *graph.Graph, members []int) [][]int {
	in := make(map[int]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	seen := make(map[int]bool, len(members))
	var parts [][]int
	for _, root := range members {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue := []int{root}
		part := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			g.ForEachNeighbor(v, func(u, _ int) {
				if in[u] && !seen[u] {
					seen[u] = true
					queue = append(queue, u)
					part = append(part, u)
				}
			})
		}
		parts = append(parts, part)
	}
	return parts
}
