package graph

// Degeneracy returns the degeneracy of g (the maximum, over the peeling
// order, of the minimum degree), together with a peeling order realizing
// it. Degeneracy bounds arboricity within a factor of 2, which connects to
// the paper's §1.1 discussion of MaxIS in arboricity-α graphs; H-minor-free
// graphs have O(1) degeneracy.
func (g *Graph) Degeneracy() (int, []int) {
	n := g.n
	deg := make([]int, n)
	removed := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	// Bucket queue over degrees.
	maxDeg := g.MaxDegree()
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	order := make([]int, 0, n)
	degeneracy := 0
	cur := 0
	for len(order) < n {
		if cur > maxDeg {
			break
		}
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			continue // stale entry
		}
		removed[v] = true
		order = append(order, v)
		if cur > degeneracy {
			degeneracy = cur
		}
		g.ForEachNeighbor(v, func(u, _ int) {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				if deg[u] < cur {
					cur = deg[u]
				}
			}
		})
	}
	return degeneracy, order
}
