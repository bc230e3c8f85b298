package expander

import (
	"math/rand"
	"sync"

	"expandergap/internal/graph"
)

// This file implements the one recursion behind Decompose,
// DecomposeIncremental and DistributedDecompose (DESIGN.md §3.12). After a
// cut the two sides are vertex-disjoint pieces of g, and so are the
// components of a disconnected piece, so every recursive call operates on an
// independent InduceFiltered view and may run on its own goroutine.
// Options.Workers only sizes that pool; three things make the output the
// same at every Workers and under every schedule:
//
//   - Per-piece randomness. Each piece seeds a fresh PRNG by hashing
//     (opts.Seed, the piece's vertex set) with FNV-64a, so every cut search
//     is a pure function of its piece, whichever goroutine runs it and
//     whenever.
//
//   - Bitmap ownership. The removed-edge set is a []bool indexed by base
//     edge id. A recursion branch writes only the edges crossing its own
//     cuts — both endpoints inside its piece — and reads only edges with
//     both endpoints inside its piece. Sibling pieces have disjoint vertex
//     sets, hence disjoint edge sets, so no two goroutines ever touch the
//     same element and the bitmap needs no lock.
//
//   - DFS-ordered assembly. Each call returns its subtree's clusters in DFS
//     discovery order (side A before side B, components in order); parents
//     concatenate child results after the join, so cluster IDs come out
//     schedule-independent.
type decomposer struct {
	g       *graph.Graph
	phi     float64
	opts    Options
	removed []bool
	// drop is the InduceFiltered predicate over removed, built once: it
	// escapes into every view, so a per-piece literal would allocate on
	// every recursive call.
	drop func(ei int) bool
	// sem bounds the extra goroutines at Workers-1 (the calling goroutine is
	// the Workers-th; Workers <= 1 leaves no slot). A full semaphore
	// degrades to inline recursion instead of blocking, so the pool can
	// never deadlock on its own children.
	sem chan struct{}
}

// newDecomposer prepares the recursion over g at conductance target phi.
func newDecomposer(g *graph.Graph, phi float64, opts Options) *decomposer {
	p := &decomposer{
		g:       g,
		phi:     phi,
		opts:    opts,
		removed: make([]bool, g.M()),
		sem:     make(chan struct{}, max(opts.Workers-1, 0)),
	}
	p.drop = func(ei int) bool { return p.removed[ei] }
	return p
}

// pieceSeed derives the PRNG seed of one recursion piece: FNV-64a over the
// run seed and the piece's vertex ids (ascending by construction — sides and
// components are emitted in ascending base order). Disjoint pieces thus draw
// independent streams, and the same piece draws the same stream under every
// schedule and worker count.
func pieceSeed(seed int64, verts []int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(seed))
	for _, v := range verts {
		mix(uint64(v))
	}
	return int64(h)
}

// solve returns the clusters of the piece verts (ascending vertex IDs) in
// DFS order: a disconnected piece splits into its components, a piece of at
// most two vertices or no edges is a cluster, and any other piece is split
// along the best cut its search finds if that cut's conductance is below
// phi, and is a cluster otherwise.
func (p *decomposer) solve(verts []int) [][]int {
	if len(verts) == 0 {
		return nil
	}
	sub := p.g.InduceFiltered(verts, p.drop)
	comps := sub.Components()
	if len(comps) > 1 {
		children := make([][]int, len(comps))
		for i, comp := range comps {
			orig := make([]int, len(comp))
			for j, v := range comp {
				orig[j] = sub.BaseVertex(v)
			}
			children[i] = orig
		}
		return p.solveChildren(children)
	}
	if len(verts) <= 2 || sub.M() == 0 {
		return [][]int{verts}
	}
	rng := rand.New(rand.NewSource(pieceSeed(p.opts.Seed, verts)))
	cut, cutPhi := bestSparseCut(sub, p.phi, rng)
	if cutPhi >= p.phi || cut == nil {
		return [][]int{verts}
	}
	var sideA, sideB []int
	for i := 0; i < sub.N(); i++ {
		v := sub.BaseVertex(i)
		if cut[i] {
			sideA = append(sideA, v)
		} else {
			sideB = append(sideB, v)
		}
	}
	// The cut edges are marked before either side recurses: both sides (and
	// everything below them) must see this cut excluded from their views.
	// Concurrent siblings elsewhere in the tree never read these elements —
	// their pieces cannot contain an edge with an endpoint in this piece.
	for _, ei := range graph.CutEdgesOf(sub, cut) {
		p.removed[sub.BaseEdge(ei)] = true
	}
	return p.solveChildren([][]int{sideA, sideB})
}

// solveChildren recurses into the disjoint child pieces, fanning all but the
// last out to the pool when slots are free (inline otherwise — the semaphore
// never blocks), and concatenates the results in child order. Panics from
// offloaded children are re-raised on the caller after the join, lowest
// child first, matching where an inline recursion would have panicked.
func (p *decomposer) solveChildren(children [][]int) [][]int {
	results := make([][][]int, len(children))
	panics := make([]any, len(children))
	var wg sync.WaitGroup
	for i := 0; i < len(children)-1; i++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				defer func() {
					if r := recover(); r != nil {
						panics[i] = r // distinct slot per child: no lock
					}
				}()
				results[i] = p.solve(children[i])
			}(i)
		default:
			results[i] = p.solve(children[i])
		}
	}
	results[len(children)-1] = p.solve(children[len(children)-1])
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	var out [][]int
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}
