package graph

import "math"

// This file holds the traversal and aggregate helpers that run on any G —
// a materialized *Graph or a zero-copy *View — so the decomposition stack
// can recurse on views without materializing a subgraph per level. Outputs
// are deterministic and identical to the corresponding *Graph methods:
// neighbor iteration is ascending, components are ordered by smallest
// contained vertex, and ties break on vertex ID.

// BFSOf runs a breadth-first search from src and returns the distance slice
// (dist[v] == -1 for unreachable v) and the parent slice (parent[src] == src,
// parent[v] == -1 for unreachable v).
func BFSOf(g G, src int) (dist, parent []int) {
	n := g.N()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	parent[src] = src
	// Head-index queue sized for the worst case (every vertex is enqueued at
	// most once), so the append below never reallocates. The visitor closure
	// is hoisted out of the loop: recreating it per vertex would
	// heap-allocate on every interface call.
	queue := make([]int, 1, n)
	queue[0] = src
	head := 0
	cur := src
	visit := func(u, _ int) {
		if dist[u] == -1 {
			dist[u] = dist[cur] + 1
			parent[u] = cur
			queue = append(queue, u)
		}
	}
	for head < len(queue) {
		cur = queue[head]
		head++
		g.ForEachNeighbor(cur, visit)
	}
	return dist, parent
}

// DiameterOf returns the exact diameter of g: the largest eccentricity in
// any of its connected components. An empty graph has diameter 0.
//
// Each component runs BoundingDiameters (Takes and Kosters 2011), which
// keeps a lower and an upper eccentricity bound per vertex and tightens
// them with one BFS at a time, so it usually settles the diameter after a
// handful of BFSs. A BFS from v with eccentricity e bounds every w in its
// component by max(e−d, d) ≤ ecc(w) ≤ e+d, where d = dist(v, w). Sources
// alternate between the candidate with the largest upper bound and the one
// with the smallest lower bound. A candidate leaves once its bounds meet,
// or once neither its eccentricity nor twice it can move the diameter's
// bounds. Every dropped vertex has eccentricity at most the lower bound ΔL,
// so the largest upper bound among the remaining candidates bounds the
// diameter from above.
func DiameterOf(g G) int {
	n := g.N()
	dist := make([]int32, n)
	lo := make([]int32, n) // lower eccentricity bound; -1 until v's component is reached
	hi := make([]int32, n) // upper eccentricity bound
	for v := range dist {
		dist[v], lo[v] = -1, -1
	}
	queue := make([]int32, 0, n)
	cand := make([]int32, 0, n)
	// bfs fills dist over src's component, leaves the component in queue in
	// BFS order, and returns src's eccentricity. The caller resets dist.
	var cur int32
	visit := func(u, _ int) {
		if dist[u] < 0 {
			dist[u] = dist[cur] + 1
			queue = append(queue, int32(u))
		}
	}
	bfs := func(src int32) int {
		queue = append(queue[:0], src)
		dist[src] = 0
		for head := 0; head < len(queue); head++ {
			cur = queue[head]
			g.ForEachNeighbor(int(cur), visit)
		}
		return int(dist[queue[len(queue)-1]])
	}
	diam := 0
	for s := 0; s < n; s++ {
		if lo[s] >= 0 {
			continue
		}
		// The component's first BFS, from its smallest vertex, also lists
		// its members, every one a candidate with unknown bounds.
		ecc := bfs(int32(s))
		cand = append(cand[:0], queue...)
		for _, w := range cand {
			lo[w], hi[w] = 0, math.MaxInt32
		}
		dL, dU := 0, math.MaxInt32
		high := false // the first source stood for a largest-upper-bound pick
		for {
			dL, dU = max(dL, ecc), min(dU, 2*ecc)
			for _, w := range cand {
				d := dist[w]
				lo[w] = max(lo[w], int32(ecc)-d, d)
				hi[w] = min(hi[w], int32(ecc)+d)
				dL = max(dL, int(lo[w]))
			}
			for _, w := range queue {
				dist[w] = -1
			}
			k, top := 0, dL
			for _, w := range cand {
				l, h := int(lo[w]), int(hi[w])
				if l == h || (h <= dL && 2*l >= dU) {
					continue
				}
				cand[k], k = w, k+1
				top = max(top, h)
			}
			cand = cand[:k]
			dU = min(dU, top)
			// A component whose upper bound cannot beat an earlier
			// component's diameter is settled too.
			if dL >= dU || dU <= diam {
				break
			}
			src := cand[0]
			for _, w := range cand[1:] {
				if high && hi[w] > hi[src] || !high && lo[w] < lo[src] {
					src = w
				}
			}
			high = !high
			ecc = bfs(src)
		}
		diam = max(diam, dL)
	}
	return diam
}

// ConnectedOf reports whether g is connected. The empty graph and singletons
// are connected.
func ConnectedOf(g G) bool {
	if g.N() <= 1 {
		return true
	}
	dist, _ := BFSOf(g, 0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// ComponentsOf returns the connected components of g as slices of vertex IDs
// in ascending order, ordered by their smallest vertex.
func ComponentsOf(g G) [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	// As in BFSOf: a head-index queue with worst-case capacity plus a
	// hoisted visitor, so component discovery allocates O(components), not
	// O(vertices).
	queue := make([]int, 0, n)
	head := 0
	id := 0
	visit := func(w, _ int) {
		if comp[w] == -1 {
			comp[w] = id
			queue = append(queue, w)
		}
	}
	for v := 0; v < n; v++ {
		if comp[v] != -1 {
			continue
		}
		id = len(sizes)
		queue = append(queue[:0], v)
		head = 0
		comp[v] = id
		for head < len(queue) {
			u := queue[head]
			head++
			g.ForEachNeighbor(u, visit)
		}
		sizes = append(sizes, len(queue))
	}
	// BFS order is not vertex order; one ascending sweep over the labels
	// fills every member list already sorted.
	comps := make([][]int, len(sizes))
	for id, size := range sizes {
		comps[id] = make([]int, 0, size)
	}
	for v, id := range comp {
		comps[id] = append(comps[id], v)
	}
	return comps
}

// EdgesOf returns a copy of g's edge list in canonical index order.
func EdgesOf(g G) []Edge {
	out := make([]Edge, g.M())
	for i := range out {
		out[i] = g.EdgeAt(i)
	}
	return out
}

// CutEdgesOf returns the indices of edges with exactly one endpoint in s, in
// ascending index order.
func CutEdgesOf(g G, s map[int]bool) []int {
	var out []int
	for idx, m := 0, g.M(); idx < m; idx++ {
		e := g.EdgeAt(idx)
		if s[e.U] != s[e.V] {
			out = append(out, idx)
		}
	}
	return out
}

// MaxDegreeOf returns the maximum vertex degree of g, using the O(1) cached
// value when the implementation exposes one (*Graph and *View both do).
func MaxDegreeOf(g G) int {
	if m, ok := g.(interface{ MaxDegree() int }); ok {
		return m.MaxDegree()
	}
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}
