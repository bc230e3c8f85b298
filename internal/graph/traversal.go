package graph

// BFS runs a breadth-first search from src and returns the distance slice
// (dist[v] == -1 for unreachable v) and the parent slice (parent[src] == src,
// parent[v] == -1 for unreachable v).
func (g *Graph) BFS(src int) (dist, parent []int) { return BFSOf(g, src) }

// Eccentricity returns the maximum finite BFS distance from src within its
// connected component.
func (g *Graph) Eccentricity(src int) int { return EccentricityOf(g, src) }

// Diameter returns the exact diameter of g (the maximum eccentricity over all
// vertices), treating each connected component separately and returning the
// largest value. It bounds eccentricities (see DiameterOf), so it usually
// needs a handful of BFSs. An empty graph has diameter 0.
func (g *Graph) Diameter() int { return DiameterOf(g) }

// Connected reports whether g is connected. The empty graph and singletons
// are connected.
func (g *Graph) Connected() bool { return ConnectedOf(g) }

// Components returns the connected components of g as slices of vertex IDs
// in ascending order, ordered by their smallest vertex.
func (g *Graph) Components() [][]int { return ComponentsOf(g) }

// ComponentIDs returns, for each vertex, the ID of its connected component
// (components numbered by smallest contained vertex, in order).
func (g *Graph) ComponentIDs() []int {
	ids := make([]int, g.n)
	for i := range ids {
		ids[i] = -1
	}
	next := 0
	for v := 0; v < g.n; v++ {
		if ids[v] != -1 {
			continue
		}
		queue := []int{v}
		ids[v] = next
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for i := g.adjOff[u]; i < g.adjOff[u+1]; i++ {
				w := int(g.adjTo[i])
				if ids[w] == -1 {
					ids[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return ids
}

// IsTree reports whether g is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.Connected() && g.M() == g.n-1
}

// ShortestPath returns one shortest path between src and dst (inclusive), or
// nil if dst is unreachable from src.
func (g *Graph) ShortestPath(src, dst int) []int {
	dist, parent := g.BFS(src)
	if dist[dst] == -1 {
		return nil
	}
	path := []int{dst}
	for v := dst; v != src; v = parent[v] {
		path = append(path, parent[v])
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// DFSOrder returns vertices in preorder of an iterative DFS over all
// components, visiting roots and neighbors in ascending ID order.
func (g *Graph) DFSOrder() []int {
	visited := make([]bool, g.n)
	order := make([]int, 0, g.n)
	var stack []int
	for root := 0; root < g.n; root++ {
		if visited[root] {
			continue
		}
		stack = append(stack[:0], root)
		visited[root] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			// Push neighbors in reverse so the smallest is processed first.
			for i := g.adjOff[v+1] - 1; i >= g.adjOff[v]; i-- {
				u := int(g.adjTo[i])
				if !visited[u] {
					visited[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	return order
}

// HasCycle reports whether g contains any cycle.
func (g *Graph) HasCycle() bool {
	ids := g.ComponentIDs()
	compVerts := make(map[int]int)
	compEdges := make(map[int]int)
	for v := 0; v < g.n; v++ {
		compVerts[ids[v]]++
	}
	for _, e := range g.edges {
		compEdges[ids[e.U]]++
	}
	for id, nv := range compVerts {
		if compEdges[id] >= nv {
			return true
		}
	}
	return false
}
