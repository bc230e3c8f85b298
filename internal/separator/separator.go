// Package separator computes balanced edge separators and verifies the
// paper's Theorem 1.6: every H-minor-free graph admits an edge separator
// (a cut {S, V\S} with min(|S|, |V\S|) ≥ |V|/3) of size O(√(Δ·n)).
//
// Two constructive heuristics are provided — a balanced spectral sweep and a
// BFS-order prefix cut — plus a brute-force exact optimum for small graphs.
// The experiment harness (E11) measures |∂S|/√(Δn) across planar and
// minor-free families and checks the ratio stays bounded, which is the
// empirically checkable content of Theorem 1.6. Lemma 2.3's consequence
// (every expander cluster of a minor-free graph contains a high-degree
// vertex) has its verifier here as well.
package separator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"expandergap/internal/conductance"
	"expandergap/internal/graph"
)

// EdgeSeparator is a balanced cut of a graph.
type EdgeSeparator struct {
	// S is the smaller (or equal) side of the cut.
	S map[int]bool
	// CutSize is |∂(S)|.
	CutSize int
}

// Balanced reports whether the separator satisfies the Theorem 1.6 balance
// requirement min(|S|, |V\S|) ≥ |V|/3 for a graph on n vertices.
func (s EdgeSeparator) Balanced(n int) bool {
	small := len(s.S)
	if rest := n - small; rest < small {
		small = rest
	}
	return 3*small >= n
}

// Quality returns |∂S| / √(Δ·n), the Theorem 1.6 ratio. A family of graphs
// satisfies the theorem iff this ratio is bounded by a constant depending
// only on the excluded minor.
func (s EdgeSeparator) Quality(g graph.G) float64 {
	d := graph.MaxDegreeOf(g)
	if d == 0 || g.N() == 0 {
		return 0
	}
	return float64(s.CutSize) / math.Sqrt(float64(d)*float64(g.N()))
}

func balancedRange(n int) (lo, hi int) {
	lo = (n + 2) / 3 // ceil(n/3)
	hi = n - lo
	return lo, hi
}

// bestPrefixCut scans prefixes of order whose sizes land in the balanced
// range and returns the one with the fewest crossing edges.
func bestPrefixCut(g graph.G, order []int) EdgeSeparator {
	n := g.N()
	lo, hi := balancedRange(n)
	inS := make([]bool, n)
	cut := 0
	best := EdgeSeparator{CutSize: math.MaxInt}
	for k := 0; k < n; k++ {
		v := order[k]
		inS[v] = true
		g.ForEachNeighbor(v, func(u, _ int) {
			if inS[u] {
				cut--
			} else {
				cut++
			}
		})
		size := k + 1
		if size < lo || size > hi {
			continue
		}
		if cut < best.CutSize {
			s := make(map[int]bool, size)
			for _, w := range order[:size] {
				s[w] = true
			}
			best = EdgeSeparator{S: s, CutSize: cut}
		}
	}
	if best.S == nil {
		panic(fmt.Sprintf("separator: no balanced prefix exists for n=%d", n))
	}
	return best
}

// Spectral returns a balanced edge separator from a Fiedler-vector sweep
// restricted to balanced prefixes. Requires n ≥ 2.
func Spectral(g graph.G, rng *rand.Rand) EdgeSeparator {
	n := g.N()
	if n < 2 {
		panic(fmt.Sprintf("separator: need n >= 2, got %d", n))
	}
	scores := conductance.FiedlerScores(g, 300, rng)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] < scores[order[b]]
		}
		return order[a] < order[b]
	})
	return bestPrefixCut(g, order)
}

// BFSOrder returns a balanced edge separator from a BFS level-order prefix
// cut rooted at root. Deterministic.
func BFSOrder(g graph.G, root int) EdgeSeparator {
	n := g.N()
	if n < 2 {
		panic(fmt.Sprintf("separator: need n >= 2, got %d", n))
	}
	dist, _ := graph.BFSOf(g, root)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := dist[order[a]], dist[order[b]]
		// Unreachable vertices (-1) go last.
		ka, kb := da, db
		if ka == -1 {
			ka = math.MaxInt
		}
		if kb == -1 {
			kb = math.MaxInt
		}
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	return bestPrefixCut(g, order)
}

// Best returns the better (smaller cut) of the spectral separator and BFS
// separators from a few roots.
func Best(g graph.G, rng *rand.Rand) EdgeSeparator {
	best := Spectral(g, rng)
	roots := []int{0}
	if g.N() > 1 {
		roots = append(roots, g.N()-1, rng.Intn(g.N()))
	}
	for _, r := range roots {
		if s := BFSOrder(g, r); s.CutSize < best.CutSize {
			best = s
		}
	}
	return best
}

// MaxBruteForceN bounds the exhaustive separator search.
const MaxBruteForceN = 20

// BruteForce returns the minimum-size balanced edge separator by exhaustive
// enumeration. Panics for n > MaxBruteForceN or n < 2.
func BruteForce(g graph.G) EdgeSeparator {
	n := g.N()
	if n < 2 || n > MaxBruteForceN {
		panic(fmt.Sprintf("separator: BruteForce needs 2 <= n <= %d, got %d", MaxBruteForceN, n))
	}
	lo, hi := balancedRange(n)
	edges := graph.EdgesOf(g)
	best := EdgeSeparator{CutSize: math.MaxInt}
	for mask := 1; mask < 1<<(n-1); mask++ { // vertex n-1 fixed outside S
		size := 0
		for v := 0; v < n-1; v++ {
			if mask&(1<<v) != 0 {
				size++
			}
		}
		if size < lo || size > hi {
			continue
		}
		cut := 0
		for _, e := range edges {
			inU := e.U < n-1 && mask&(1<<e.U) != 0
			inV := e.V < n-1 && mask&(1<<e.V) != 0
			if inU != inV {
				cut++
			}
		}
		if cut < best.CutSize {
			s := make(map[int]bool, size)
			for v := 0; v < n-1; v++ {
				if mask&(1<<v) != 0 {
					s[v] = true
				}
			}
			best = EdgeSeparator{S: s, CutSize: cut}
		}
	}
	return best
}

// HighDegreeWitness verifies the consequence of Lemma 2.3 used by the
// framework: for a cluster with conductance at least phi in an H-minor-free
// graph, the maximum degree Δ_i must be at least c·φ²·|V_i| for a constant c
// depending only on H. It returns Δ_i / (φ²·|V_i|), the measured constant;
// Lemma 2.3 holds on a family iff this stays bounded away from 0.
func HighDegreeWitness(g graph.G, phi float64) float64 {
	if g.N() == 0 || phi <= 0 {
		return 0
	}
	return float64(graph.MaxDegreeOf(g)) / (phi * phi * float64(g.N()))
}
