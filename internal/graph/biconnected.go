package graph

// BiconnectedComponents returns the biconnected components of g as slices of
// edge indices, computed with Hopcroft–Tarjan lowpoint DFS (iterative, so
// deep planar graphs do not overflow the stack). Bridges form their own
// single-edge components. Isolated vertices contribute no component.
//
// Planarity testing reduces to testing each biconnected component, which is
// why this lives in the graph package rather than internal/minor.
func (g *Graph) BiconnectedComponents() [][]int {
	n := g.n
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var comps [][]int
	var edgeStack []int
	timer := 0

	type frame struct {
		v, parentEdge int
		childIdx      int
	}
	var stack []frame

	popComponent := func(untilEdge int) {
		var comp []int
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			comp = append(comp, e)
			if e == untilEdge {
				break
			}
		}
		if len(comp) > 0 {
			comps = append(comps, comp)
		}
	}

	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		disc[root] = timer
		low[root] = timer
		timer++
		stack = append(stack[:0], frame{v: root, parentEdge: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			if f.childIdx < g.Degree(v) {
				u, idx := g.arc(v, f.childIdx)
				f.childIdx++
				if idx == f.parentEdge {
					continue
				}
				if disc[u] == -1 {
					edgeStack = append(edgeStack, idx)
					disc[u] = timer
					low[u] = timer
					timer++
					stack = append(stack, frame{v: u, parentEdge: idx})
				} else if disc[u] < disc[v] {
					// Back edge.
					edgeStack = append(edgeStack, idx)
					if disc[u] < low[v] {
						low[v] = disc[u]
					}
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					p := &stack[len(stack)-1]
					if low[v] < low[p.v] {
						low[p.v] = low[v]
					}
					if low[v] >= disc[p.v] {
						// p.v is an articulation point (or root); pop the
						// component ending at the tree edge into v.
						popComponent(f.parentEdge)
					}
				}
			}
		}
	}
	return comps
}
