package graph

// BFS runs a breadth-first search from src and returns the distance slice
// (dist[v] == -1 for unreachable v) and the parent slice (parent[src] == src,
// parent[v] == -1 for unreachable v).
func (g *Graph) BFS(src int) (dist, parent []int) { return BFSOf(g, src) }

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
