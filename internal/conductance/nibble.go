package conductance

import (
	"slices"

	"expandergap/internal/graph"
)

// approximatePageRankDense computes an ε-approximate personalized PageRank
// vector from the seed vertex with teleport probability alpha, using the
// classic push algorithm (Andersen–Chung–Lang): maintain (p, r) with p the
// current approximation and r the residual; repeatedly push at vertices whose
// residual exceeds epsPush·deg. The result satisfies
// p(v) ≤ ppr(v) ≤ p(v) + epsPush·deg(v) for all v; vertices the push never
// reached have p(v) = 0. p and r are indexed by vertex and inQueue tracks
// queue membership, so the decomposition's inner loop pays no per-push map
// growth.
func approximatePageRankDense(g graph.G, seed int, alpha, epsPush float64) []float64 {
	n := g.N()
	p := make([]float64, n)
	r := make([]float64, n)
	inQueue := make([]bool, n)
	r[seed] = 1
	// inQueue bounds the outstanding entries by n, so a head-index queue with
	// capacity n plus compaction never grows past its initial allocation —
	// the sliding-window `queue = queue[1:]` idiom would reallocate on every
	// capacity exhaustion even though the live window stays small.
	queue := make([]int, 1, n)
	queue[0] = seed
	head := 0
	inQueue[seed] = true
	enqueue := func(v int) {
		if len(queue) == cap(queue) && head > 0 {
			live := copy(queue, queue[head:])
			queue = queue[:live]
			head = 0
		}
		queue = append(queue, v)
	}
	var share float64
	push := func(v, _ int) {
		r[v] += share
		if r[v] >= epsPush*float64(g.Degree(v)) && !inQueue[v] {
			enqueue(v)
			inQueue[v] = true
		}
	}
	for head < len(queue) {
		u := queue[head]
		head++
		inQueue[u] = false
		deg := g.Degree(u)
		if deg == 0 {
			p[u] += r[u]
			r[u] = 0
			continue
		}
		ru := r[u]
		if ru < epsPush*float64(deg) {
			continue
		}
		p[u] += alpha * ru
		share = (1 - alpha) * ru / (2 * float64(deg))
		r[u] = (1 - alpha) * ru / 2
		if r[u] >= epsPush*float64(deg) && !inQueue[u] {
			enqueue(u)
			inQueue[u] = true
		}
		g.ForEachNeighbor(u, push)
	}
	return p
}

// Nibble runs the PageRank-Nibble local clustering: compute an approximate
// PPR vector from the seed, order touched vertices by p(v)/deg(v), and
// return the best sweep-cut prefix together with its conductance. It only
// ever touches O(1/(alpha·epsPush)) vertices, which is what makes it the
// local-clustering primitive behind nibble-style expander decompositions.
// Returns nil when no non-trivial cut exists among touched vertices.
func Nibble(g graph.G, seed int, alpha, epsPush float64) (map[int]bool, float64) {
	p := approximatePageRankDense(g, seed, alpha, epsPush)
	type scored struct {
		v     int
		score float64
	}
	var order []scored
	for v, pv := range p {
		d := g.Degree(v)
		if d == 0 || pv <= 0 {
			continue
		}
		order = append(order, scored{v: v, score: pv / float64(d)})
	}
	if len(order) == 0 {
		return nil, 0
	}
	// Strict total order (score desc, then vertex id): the permutation is
	// unique, so swapping in the reflection-free sort cannot change output.
	slices.SortFunc(order, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return a.v - b.v
	})
	totalVol := 2 * g.M()
	inS := make([]bool, g.N())
	volS := 0
	cut := 0
	countCrossings := func(u, _ int) {
		if inS[u] {
			cut--
		} else {
			cut++
		}
	}
	best := -1
	bestPhi := 2.0
	for k, sc := range order {
		v := sc.v
		inS[v] = true
		volS += g.Degree(v)
		g.ForEachNeighbor(v, countCrossings)
		minVol := volS
		if rest := totalVol - volS; rest < minVol {
			minVol = rest
		}
		if minVol <= 0 {
			continue
		}
		phi := float64(cut) / float64(minVol)
		if phi < bestPhi {
			bestPhi = phi
			best = k
		}
	}
	if best < 0 {
		return nil, 0
	}
	s := make(map[int]bool, best+1)
	for _, sc := range order[:best+1] {
		s[sc.v] = true
	}
	return s, bestPhi
}
