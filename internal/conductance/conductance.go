// Package conductance implements the spectral toolkit of Section 2 of the
// paper: exact graph conductance for small graphs, Cheeger-style spectral
// bounds via power iteration on the lazy random walk, the Chebyshev filter
// that aims the decomposer's cut search at a conductance target φ, sweep
// cuts, PageRank-Nibble local clustering, lazy-walk steps, and mixing-time
// estimation.
//
// These quantities define the (ε, φ) expander decomposition contract
// (every cluster must satisfy Φ(G_i) ≥ φ) and drive the random-walk routing
// analysis of Lemma 2.4, so everything downstream depends on this package.
package conductance

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"expandergap/internal/graph"
)

// MaxExactN is the largest graph size for which ExactCut and
// ExactConductance enumerate all cuts (2^(n-1) subsets).
const MaxExactN = 22

// ExactConductance returns Φ(G) = min over all non-trivial cuts of Φ(S),
// computed by exhaustive enumeration (ExactCut). It panics for graphs larger
// than MaxExactN vertices; callers should fall back to EstimateBounds. For a
// disconnected graph the result is 0 (any component is a cut with no
// crossing edges). An empty or single-vertex graph has conductance 0 by
// convention.
func ExactConductance(g graph.G) float64 {
	_, phi := ExactCut(g)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			return 0 // {v} is a cut with no crossing edges
		}
	}
	if math.IsInf(phi, 1) {
		return 0 // fewer than two vertices
	}
	return phi
}

// ExactCut returns the cut S of minimum conductance among the cuts of g
// whose two sides both have positive volume, and Φ(S), by enumerating all
// 2^(n-1) cuts that leave vertex n-1 outside S. Ties go to the smallest mask
// (bit v set for v ∈ S). It returns nil and +Inf when no cut qualifies (fewer
// than two vertices, or no edges), and panics above MaxExactN vertices.
//
// The enumeration walks the masks in reflected Gray-code order, so each step
// moves one vertex v across the cut: vol(S) changes by deg(v), and |∂S| by
// deg(v) − 2·|N(v) ∩ S|, read off a neighbour bitmask with one popcount.
// Conductances are compared exactly, as integer cross products.
func ExactCut(g graph.G) (map[int]bool, float64) {
	n := g.N()
	if n > MaxExactN {
		panic(fmt.Sprintf("conductance: exact cut enumeration limited to n <= %d, got %d", MaxExactN, n))
	}
	if n < 2 {
		return nil, math.Inf(1)
	}
	deg := make([]int, n)
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	nbr := make([]uint32, n)
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		nbr[e.U] |= 1 << e.V
		nbr[e.V] |= 1 << e.U
	}
	totalVol := 2 * g.M()
	var s, best uint32
	vol, cut, bestVol, bestCut := 0, 0, 0, 0
	for k := uint32(1); k < 1<<(n-1); k++ {
		v := bits.TrailingZeros32(k)
		d := deg[v] - 2*bits.OnesCount32(nbr[v]&s)
		if s&(1<<v) == 0 {
			vol, cut = vol+deg[v], cut+d
		} else {
			vol, cut = vol-deg[v], cut-d
		}
		s ^= 1 << v
		minVol := min(vol, totalVol-vol)
		if minVol == 0 {
			continue
		}
		if l, r := cut*bestVol, bestCut*minVol; best == 0 || l < r || l == r && s < best {
			best, bestCut, bestVol = s, cut, minVol
		}
	}
	if best == 0 {
		return nil, math.Inf(1)
	}
	set := make(map[int]bool, bits.OnesCount32(best))
	for v := 0; v < n-1; v++ {
		if best&(1<<v) != 0 {
			set[v] = true
		}
	}
	return set, float64(bestCut) / float64(bestVol)
}

// flatAdj snapshots g's adjacency into CSR-style offset/neighbor arrays so
// iteration-heavy spectral loops run over flat slices instead of repeated
// interface calls (a per-vertex closure passed through an interface escapes
// to the heap on every call, which the power iteration would otherwise pay
// n times per iteration). Neighbor order — ascending, the G contract — is
// preserved, so float accumulation order is unchanged.
func flatAdj(g graph.G) (off, to []int32) {
	if c, ok := g.(interface{ AdjacencyCSR() (off, to []int32) }); ok {
		return c.AdjacencyCSR()
	}
	n := g.N()
	off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.Degree(v))
	}
	to = make([]int32, off[n])
	pos := 0
	collect := func(u, _ int) {
		to[pos] = int32(u)
		pos++
	}
	for v := 0; v < n; v++ {
		g.ForEachNeighbor(v, collect)
	}
	return off, to
}

// LazyWalkStep advances one step of the uniform lazy random walk: the new
// distribution is p'(u) = p(u)/2 + Σ_{w∈N(u)} p(w)/(2 deg(w)). dst and src
// must have length g.N(); dst is overwritten. Vertices of degree 0 keep all
// their mass.
func LazyWalkStep(g graph.G, dst, src []float64) {
	for u := range dst {
		dst[u] = src[u] / 2
	}
	var share float64
	push := func(u, _ int) {
		dst[u] += share
	}
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if d == 0 {
			dst[v] += src[v] / 2
			continue
		}
		share = src[v] / (2 * float64(d))
		g.ForEachNeighbor(v, push)
	}
}

// StationaryDistribution returns π(u) = deg(u)/vol(V) for a connected graph.
func StationaryDistribution(g graph.G) []float64 {
	pi := make([]float64, g.N())
	vol := float64(2 * g.M())
	if vol == 0 {
		for i := range pi {
			pi[i] = 1 / float64(g.N())
		}
		return pi
	}
	for v := 0; v < g.N(); v++ {
		pi[v] = float64(g.Degree(v)) / vol
	}
	return pi
}

// MixingTime returns the paper's τ_mix(G): the smallest t such that for all
// start vertices v and targets u, |p_t^v(u) − π(u)| ≤ π(u)/n. maxSteps caps
// the search; the boolean result is false if the bound was not reached.
// Exact (propagates full distributions), so intended for modest n.
func MixingTime(g graph.G, maxSteps int) (int, bool) {
	n := g.N()
	if n <= 1 {
		return 0, true
	}
	pi := StationaryDistribution(g)
	// Evolve all start distributions simultaneously: dist[v] is the walk
	// distribution started at v.
	dists := make([][]float64, n)
	scratch := make([]float64, n)
	for v := range dists {
		dists[v] = make([]float64, n)
		dists[v][v] = 1
	}
	check := func() bool {
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if math.Abs(dists[v][u]-pi[u]) > pi[u]/float64(n) {
					return false
				}
			}
		}
		return true
	}
	if check() {
		return 0, true
	}
	for t := 1; t <= maxSteps; t++ {
		for v := 0; v < n; v++ {
			LazyWalkStep(g, scratch, dists[v])
			copy(dists[v], scratch)
		}
		if check() {
			return t, true
		}
	}
	return maxSteps, false
}

// walkKernel is the power iteration behind SpectralGap and FiedlerScores,
// and the product behind Fiedler.Filter's recurrence, on the symmetrized
// lazy walk S = D^{-1/2} W D^{1/2} of one graph, where W = I/2 + A D^{-1}/2
// acts on column distributions; symmetric form:
// S = I/2 + D^{-1/2} A D^{-1/2} / 2. It holds the weights sqrtD, which scale
// S and span its top eigenvector d^{1/2}, and the graph's CSR slots (one
// slot per directed edge, in row order) with each slot's row and divisor, so
// apply is one loop over the slots. It is read-only once built, so
// iterations may share it concurrently.
type walkKernel struct {
	// to[e] is the column (neighbor) of slot e, from[e] its row, and div[e]
	// = 2·sqrtD[to[e]]·sqrtD[from[e]], the divisor of its term.
	to, from []int32
	div      []float64
	// isolated lists the degree-0 vertices, whose self-loop keeps their mass.
	isolated []int32
	sqrtD    []float64
	// dd is Σ sqrtD[i]², summed in index order, which deflate divides by.
	dd float64
}

// newWalkKernel builds the kernel over the CSR off/to with weights
// √(deg + shift). SpectralGap uses shift 0; NewFiedler, behind
// FiedlerScores and the filtered trials, uses 1e-12, so every vertex has a
// nonzero weight to divide its score by.
func newWalkKernel(off, to []int32, shift float64) walkKernel {
	n := len(off) - 1
	to = to[:off[n]]
	k := walkKernel{to: to, from: make([]int32, len(to)), div: make([]float64, len(to)), sqrtD: make([]float64, n)}
	for v := range k.sqrtD {
		k.sqrtD[v] = math.Sqrt(float64(off[v+1]-off[v]) + shift)
		k.dd += k.sqrtD[v] * k.sqrtD[v]
		if off[v+1] == off[v] {
			k.isolated = append(k.isolated, int32(v))
		}
	}
	for v, dv := range k.sqrtD {
		for e := off[v]; e < off[v+1]; e++ {
			k.from[e] = int32(v)
			k.div[e] = 2 * k.sqrtD[to[e]] * dv
		}
	}
	return k
}

// drawStart fills x with the start vector of one power iteration or
// filtered trial, one rng.Float64() − 0.5 per vertex in vertex order: all
// the randomness either consumes.
func drawStart(x []float64, rng *rand.Rand) {
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
}

// iterate deflates and normalizes the start vector x, then runs iters
// power-iteration steps (apply, deflate, normalize), using y as scratch; both
// are overwritten. It returns the final iterate, which x or y holds, and with
// rayleigh set the last Rayleigh quotient ⟨S x, x⟩/⟨x, x⟩ of a deflated
// iterate (0 after no steps).
func (k walkKernel) iterate(x, y []float64, iters int, rayleigh bool) ([]float64, float64) {
	k.deflate(x)
	normalize(x)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		k.apply(y, x)
		k.deflate(y)
		if rayleigh {
			var num, den float64
			for i := range y {
				num += y[i] * x[i]
				den += x[i] * x[i]
			}
			if den > 0 {
				lambda = num / den
			}
		}
		normalize(y)
		x, y = y, x
	}
	return x, lambda
}

// apply sets dst = S·src; dst and src must not overlap. Slots run in row
// order, so each dst[u] sums its terms in ascending neighbor order, from the
// same operands as a row-by-row loop, and every result is bit-identical to
// one.
func (k walkKernel) apply(dst, src []float64) {
	for i := range dst {
		dst[i] = src[i] / 2
	}
	for _, v := range k.isolated {
		dst[v] += src[v] / 2
	}
	from, div := k.from[:len(k.to)], k.div[:len(k.to)]
	for e, u := range k.to {
		dst[u] += src[from[e]] / div[e]
	}
}

// deflate removes x's component along sqrtD, S's top eigenvector.
func (k walkKernel) deflate(x []float64) {
	if k.dd == 0 {
		return
	}
	var dot float64
	for i := range x {
		dot += x[i] * k.sqrtD[i]
	}
	c := dot / k.dd
	for i := range x {
		x[i] -= c * k.sqrtD[i]
	}
}

// normalize scales x to unit Euclidean norm; a zero vector stays zero.
func normalize(x []float64) {
	var s float64
	for _, xi := range x {
		s += xi * xi
	}
	s = math.Sqrt(s)
	if s == 0 {
		return
	}
	for i := range x {
		x[i] /= s
	}
}

// SpectralGap estimates 1 − λ2 of the lazy random walk transition matrix by
// power iteration with deflation against the stationary component, using the
// symmetric normalization D^{-1/2} W D^{1/2}. Returns the gap estimate.
// For a disconnected graph the gap is ~0.
func SpectralGap(g graph.G, iters int, rng *rand.Rand) float64 {
	n := g.N()
	if n <= 1 {
		return 1
	}
	off, to := flatAdj(g)
	k := newWalkKernel(off, to, 0)
	vecs := make([]float64, 2*n)
	drawStart(vecs[:n], rng)
	_, lambda := k.iterate(vecs[:n], vecs[n:], iters, true)
	return 1 - lambda
}

// SweepCut orders vertices by score and returns the prefix cut with the
// minimum conductance, as the set of vertices on the low-score side, along
// with its conductance. Both sides of the returned cut are non-empty.
// It returns nil for graphs with fewer than 2 vertices.
func SweepCut(g graph.G, score []float64) (map[int]bool, float64) {
	n := g.N()
	if n < 2 {
		return nil, 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// The comparator is a strict total order (score, then vertex id), so the
	// sorted permutation is unique and independent of the sort algorithm;
	// slices.SortFunc just avoids sort.Slice's per-call reflection allocs.
	slices.SortFunc(order, func(a, b int) int {
		if score[a] != score[b] {
			if score[a] < score[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	inS := make([]bool, n)
	volS := 0
	cut := 0
	countCrossings := func(u, _ int) {
		if inS[u] {
			cut--
		} else {
			cut++
		}
	}
	totalVol := 2 * g.M()
	bestPhi := math.Inf(1)
	bestK := 0
	for k := 0; k < n-1; k++ {
		v := order[k]
		inS[v] = true
		volS += g.Degree(v)
		g.ForEachNeighbor(v, countCrossings)
		minVol := volS
		if rest := totalVol - volS; rest < minVol {
			minVol = rest
		}
		var phi float64
		switch {
		case minVol == 0 && cut == 0:
			phi = math.Inf(1) // useless cut; skip by treating as infinite
		case minVol == 0:
			phi = math.Inf(1)
		default:
			phi = float64(cut) / float64(minVol)
		}
		if phi < bestPhi {
			bestPhi = phi
			bestK = k + 1
		}
	}
	if math.IsInf(bestPhi, 1) {
		// No informative cut (e.g. edgeless graph): return the first vertex.
		bestPhi = 0
		bestK = 1
	}
	s := make(map[int]bool, bestK)
	for _, v := range order[:bestK] {
		s[v] = true
	}
	return s, bestPhi
}

// Fiedler holds what the spectral trials on one graph share, read-only: the
// kernel's CSR slots, their rows and divisors, and the √deg weights. A trial
// is one Start followed by one Filter, the cut search's Chebyshev filter;
// FiedlerScores runs the power iteration on the same kernel. A caller that
// sweeps from several starts draws every start vector with Start on its own
// goroutine, in order, and may then run the Filter calls concurrently.
type Fiedler struct {
	k walkKernel
}

// NewFiedler prepares the spectral trials on g.
func NewFiedler(g graph.G) Fiedler {
	off, to := flatAdj(g)
	return Fiedler{newWalkKernel(off, to, 1e-12)}
}

// Start draws the start vector of one trial into x, of length g.N(). It
// consumes one rng.Float64 per vertex, or none on graphs of at most 2
// vertices, whose scores need no iteration.
func (f Fiedler) Start(x []float64, rng *rand.Rand) {
	if len(f.k.sqrtD) > 2 {
		drawStart(x, rng)
	}
}

// Filter is the cut search's spectral trial aimed at φ. From the start
// vector x that Start drew, with y and z as scratch of the same length, it
// runs K = filterProducts(n, c) products of a Chebyshev filter (Zhou and
// Saad 2007) that damps the deflated lazy-walk spectrum on [0, c], c =
// filterCutoff(φ), and amplifies the band above it, then divides by √deg as
// FiedlerScores does. It returns the scores, written over x, y or z. Graphs
// of at most 2 vertices score each vertex by its ID.
//
// By Cheeger's inequality a piece has a cut below φ only if its second
// lazy-walk eigenvalue is above 1 − φ, the middle of the band above
// c = 1 − 2φ. Against [0, c], each product raises a component at 1 − φ by
// e^acosh(1/c) ≈ e^(2√φ), where a power step raises it by (1 − φ)/c ≈ e^φ.
// The filter is T_K((2λ − c)/c) / T_K((2 − c)/c), the Chebyshev polynomial of
// [0, c] scaled to 1 at the top eigenvalue λ = 1, so no deflated component
// ever grows: one above c keeps at least 1/T_K(t) of itself, one on [0, c]
// at most that. It runs as the scaled three-term recurrence
//
//	y₁ = (σ₁/h)(S − h)y₀,  y_{k+1} = (2σ_{k+1}/h)(S − h)y_k − σ_kσ_{k+1}y_{k−1},
//	h = c/2,  t = (2 − c)/c,  σ₁ = 1/t,  σ_{k+1} = 1/(2t − σ_k),
//
// one apply, one deflate and one combining pass per product. filterProducts
// keeps T_K(t) below 10⁶⁹, far above float64's underflow, so the iterates
// need no rescaling.
func (f Fiedler) Filter(x, y, z []float64, phi float64) []float64 {
	n := len(f.k.sqrtD)
	if n <= 2 {
		for i := range x {
			x[i] = float64(i)
		}
		return x
	}
	c := filterCutoff(phi)
	h, t := c/2, (2-c)/c
	// prev, cur and next hold y_{k−1}, y_k and then S·y_k, overwritten by
	// y_{k+1}.
	prev, cur, next := x, y, z
	f.k.deflate(prev)
	f.k.apply(cur, prev)
	f.k.deflate(cur)
	sigma := 1 / t
	for i := range cur {
		cur[i] = sigma / h * (cur[i] - h*prev[i])
	}
	for k := filterProducts(n, c); k > 1; k-- {
		f.k.apply(next, cur)
		f.k.deflate(next)
		s := 1 / (2*t - sigma)
		a, b := 2*s/h, sigma*s
		for i := range next {
			next[i] = a*(next[i]-h*cur[i]) - b*prev[i]
		}
		prev, cur, next = cur, next, prev
		sigma = s
	}
	for v := range cur {
		cur[v] /= f.k.sqrtD[v]
	}
	return cur
}

// filterCutoff returns the top c of the band [0, c] that Filter damps:
// 1 − 2φ, whose band above holds every eigenvalue above Cheeger's 1 − φ with
// a margin of φ, clamped to [1/4, 1]. The floor keeps the filter defined
// where Options.Phi asks for φ ≥ 1/2, which would leave no band to damp, and
// bounds its height; the ceiling serves a φ ≤ 0, which no cut is below. A
// NaN gets the floor.
func filterCutoff(phi float64) float64 {
	c := 1 - 2*phi
	if !(c >= 0.25) {
		return 0.25
	}
	return min(c, 1)
}

// filterProducts returns Filter's K on an n-vertex piece with cut-off c: the
// least K with T_K(1/c) ≥ √n, clamped to [60, 300]. √n is the norm of a
// random start's bulk against one of its components, so K products let a
// component at the middle of the band above c (1 − φ at c = 1 − 2φ)
// outweigh everything on [0, c]. Sixty products sufficed on every piece
// measured, at φ from 0.005 up; the rule asks for more only where the growth
// per product, acosh(1/c) ≈ 2√φ, falls below acosh(√n)/60: below φ ≈
// 1.2·10⁻³ at a thousand vertices, 2.2·10⁻³ at twenty thousand. The cap is
// 300, the steps of the power iteration the cut search's quality test takes
// as its reference, so a trial never costs more than one of those.
// The filter's height T_K((2 − c)/c) is at most T_60(7) < 10⁶⁹ at the floor
// (c ≥ 1/4) and below 8n/c² above it.
func filterProducts(n int, c float64) int {
	const minProducts, maxProducts = 60, 300
	k := math.Ceil(math.Acosh(math.Sqrt(float64(n))) / math.Acosh(1/c))
	if !(k < maxProducts) {
		return maxProducts // also c = 1, where acosh(1/c) = 0
	}
	return max(int(k), minProducts)
}

// FiedlerScores returns an approximate second eigenvector of the symmetrized
// lazy walk (rescaled to act as per-vertex scores), suitable for SweepCut:
// iters power iterations from a start vector drawn as Start draws it, divided
// by √deg. Graphs of at most 2 vertices score each vertex by its ID.
func FiedlerScores(g graph.G, iters int, rng *rand.Rand) []float64 {
	n := g.N()
	f := NewFiedler(g)
	vecs := make([]float64, 2*n)
	x := vecs[:n:n]
	f.Start(x, rng)
	if n <= 2 {
		for i := range x {
			x[i] = float64(i)
		}
		return x
	}
	x, _ = f.k.iterate(x, vecs[n:], iters, false)
	for v := range x {
		x[v] /= f.k.sqrtD[v]
	}
	return x
}

// Bounds holds conductance bounds for a graph: a true upper bound and, for
// graphs too large to decide exactly, a lower estimate (see EstimateBounds).
type Bounds struct {
	Lower float64
	Upper float64
}

// EstimateBounds returns conductance bounds: the upper bound comes from the
// best spectral sweep cut found (a genuine cut, hence a true upper bound);
// the lower bound is Cheeger's inequality, Φ ≥ gap/2 for the lazy walk
// normalization, applied to the spectral gap estimated after iters power
// iterations. The power iteration does not converge within a few hundred
// iterations on large, poorly connected graphs and overestimates the gap
// there (5.4× on a 50×50 grid at 300), so Lower is an estimate, not a
// certificate.
func EstimateBounds(g graph.G, iters int, rng *rand.Rand) Bounds {
	if g.N() <= 1 || g.M() == 0 {
		return Bounds{}
	}
	gap := SpectralGap(g, iters, rng)
	_, upper := SweepCut(g, FiedlerScores(g, iters, rng))
	lower := gap / 2
	if lower < 0 {
		lower = 0
	}
	if lower > upper {
		lower = upper // numerical safety: keep interval consistent
	}
	return Bounds{Lower: lower, Upper: upper}
}
