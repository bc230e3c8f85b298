// Package solvers provides the sequential algorithms cluster leaders run on
// gathered topologies (the "solve locally" step of Theorem 2.6), plus the
// sequential baselines and subroutines the applications need: exact maximum
// independent set, exact maximum cardinality matching (Edmonds' blossom
// algorithm), exact maximum weight matching (branch and bound), exact and
// local-search correlation clustering, and the sequential low-diameter
// decomposition used by Theorem 1.5.
//
// Exact solvers are exponential in the worst case but run on cluster-sized
// inputs; each has a documented practical size limit and a greedy fallback.
package solvers

import (
	"math/bits"

	"expandergap/internal/graph"
)

// MaxISExactLimit is the largest vertex count MaximumIndependentSet accepts.
const MaxISExactLimit = 64

// MaximumIndependentSet returns a maximum independent set of g, exactly,
// using branch and bound on the highest-degree vertex with component
// splitting. Intended for cluster-sized graphs (n ≤ MaxISExactLimit; sparse
// instances far larger run fine). Panics above the limit.
func MaximumIndependentSet(g *graph.Graph) []int {
	if g.N() > MaxISExactLimit {
		panic("solvers: MaximumIndependentSet limited to 64 vertices; use GreedyIndependentSet")
	}
	if g.N() == 0 {
		return nil
	}
	adj := make([]uint64, g.N())
	for _, e := range g.Edges() {
		adj[e.U] |= 1 << uint(e.V)
		adj[e.V] |= 1 << uint(e.U)
	}
	full := uint64(1)<<uint(g.N()) - 1
	memo := make(map[uint64]uint64)
	best := misRec(adj, full, memo)
	var out []int
	for v := 0; v < g.N(); v++ {
		if best&(1<<uint(v)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// misRec returns a maximum independent set of the subgraph induced by mask,
// as a bitmask.
func misRec(adj []uint64, mask uint64, memo map[uint64]uint64) uint64 {
	if mask == 0 {
		return 0
	}
	if s, ok := memo[mask]; ok {
		return s
	}
	// Find a vertex in mask; prefer max degree within mask, and shortcut
	// degree-0 and degree-1 vertices (always take them).
	var pick, maxDeg = -1, -1
	m := mask
	for m != 0 {
		v := bits.TrailingZeros64(m)
		m &= m - 1
		d := bits.OnesCount64(adj[v] & mask)
		if d == 0 {
			// Isolated in the remainder: always in the solution.
			rest := misRec(adj, mask&^(1<<uint(v)), memo)
			res := rest | 1<<uint(v)
			memo[mask] = res
			return res
		}
		if d > maxDeg {
			maxDeg, pick = d, v
		}
	}
	v := uint(pick)
	if maxDeg == 1 {
		// Take v's single neighbor... taking v itself is always optimal for
		// a degree-1 vertex.
		nb := adj[pick] & mask
		rest := misRec(adj, mask&^(1<<v)&^nb, memo)
		res := rest | 1<<v
		memo[mask] = res
		return res
	}
	// Branch: exclude v / include v.
	without := misRec(adj, mask&^(1<<v), memo)
	with := misRec(adj, mask&^(1<<v)&^(adj[pick]&mask), memo) | 1<<v
	res := without
	if bits.OnesCount64(with) > bits.OnesCount64(without) {
		res = with
	}
	memo[mask] = res
	return res
}

// GreedyIndependentSet returns the minimum-degree greedy independent set:
// repeatedly take a minimum-degree vertex and delete its closed
// neighborhood. For a graph of edge density d this guarantees at least
// n/(2d+1) vertices — the bound §3.1 of the paper uses to show
// α(G) = Θ(n) on H-minor-free graphs.
//
// Ties go to the lowest ID. Live vertices wait in buckets by current
// degree, each a min-heap of IDs: a vertex whose degree drops joins its new
// bucket, and its old entry is dropped when it surfaces, so each pick and
// each degree drop costs O(log n) and the run O((n + m) log n).
func GreedyIndependentSet(g *graph.Graph) []int {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int, n)
	var buckets []idHeap
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
		for len(buckets) <= deg[v] {
			buckets = append(buckets, nil)
		}
		// Ascending IDs appended in order already form a heap.
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	low := 0 // no live vertex has a degree below low
	var out []int
	var kill []int
	for remaining := n; remaining > 0; {
		pick := -1
		for pick < 0 {
			b := &buckets[low]
			switch {
			case len(*b) == 0:
				low++
			case !alive[(*b)[0]] || deg[(*b)[0]] != low:
				b.pop() // a vertex since deleted or moved to a lower bucket
			default:
				pick = int(b.pop())
			}
		}
		out = append(out, pick)
		kill = append(kill[:0], pick)
		g.ForEachNeighbor(pick, func(u, _ int) {
			if alive[u] {
				kill = append(kill, u)
			}
		})
		for _, v := range kill {
			alive[v] = false
			remaining--
			g.ForEachNeighbor(v, func(u, _ int) {
				if alive[u] {
					deg[u]--
					buckets[deg[u]].push(int32(u))
					low = min(low, deg[u])
				}
			})
		}
	}
	return out
}

// idHeap is a binary min-heap of vertex IDs.
type idHeap []int32

func (h *idHeap) push(id int32) {
	*h = append(*h, id)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= id {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = id
}

func (h *idHeap) pop() int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	e := s[last]
	*h = s[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		small := l
		if r := l + 1; r < last && s[r] < s[l] {
			small = r
		}
		if e <= s[small] {
			break
		}
		s[i] = s[small]
		i = small
	}
	if last > 0 {
		s[i] = e
	}
	return top
}

// IsIndependentSet reports whether set is independent in g.
func IsIndependentSet(g *graph.Graph, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		if in[v] {
			return false
		}
		in[v] = true
	}
	for _, e := range g.Edges() {
		if in[e.U] && in[e.V] {
			return false
		}
	}
	return true
}

// WeightedMaxISLimit bounds the exact weighted independent-set search.
const WeightedMaxISLimit = 64

// MaximumWeightIndependentSet returns a maximum-weight independent set for
// vertex weights w (all non-negative), exactly, by the same branch and
// bound. Used by the weighted MaxIS extension of §3.1.
func MaximumWeightIndependentSet(g *graph.Graph, w []int64) []int {
	if g.N() > WeightedMaxISLimit {
		panic("solvers: MaximumWeightIndependentSet limited to 64 vertices")
	}
	if g.N() == 0 {
		return nil
	}
	adj := make([]uint64, g.N())
	for _, e := range g.Edges() {
		adj[e.U] |= 1 << uint(e.V)
		adj[e.V] |= 1 << uint(e.U)
	}
	full := uint64(1)<<uint(g.N()) - 1
	memo := make(map[uint64]uint64)
	best := wmisRec(adj, w, full, memo)
	var out []int
	for v := 0; v < g.N(); v++ {
		if best&(1<<uint(v)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

func setWeight(w []int64, set uint64) int64 {
	var total int64
	for set != 0 {
		v := bits.TrailingZeros64(set)
		set &= set - 1
		total += w[v]
	}
	return total
}

func wmisRec(adj []uint64, w []int64, mask uint64, memo map[uint64]uint64) uint64 {
	if mask == 0 {
		return 0
	}
	if s, ok := memo[mask]; ok {
		return s
	}
	pick, maxDeg := -1, -1
	m := mask
	for m != 0 {
		v := bits.TrailingZeros64(m)
		m &= m - 1
		d := bits.OnesCount64(adj[v] & mask)
		if d > maxDeg {
			maxDeg, pick = d, v
		}
	}
	v := uint(pick)
	without := wmisRec(adj, w, mask&^(1<<v), memo)
	with := wmisRec(adj, w, mask&^(1<<v)&^(adj[pick]&mask), memo) | 1<<v
	res := without
	if setWeight(w, with) > setWeight(w, without) {
		res = with
	}
	memo[mask] = res
	return res
}
