package expander

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"expandergap/internal/conductance"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// Decomposition is the result of an (ε, φ) expander decomposition.
type Decomposition struct {
	// Assignment maps each vertex to its cluster ID (0..len(Clusters)-1).
	Assignment primitives.ClusterAssignment
	// Clusters lists the vertex sets, each sorted ascending.
	Clusters [][]int
	// Removed lists the indices of inter-cluster (removed) edges.
	Removed []int
	// Eps is the requested edge-removal budget.
	Eps float64
	// Phi is the conductance target each cluster was built to meet.
	Phi float64
}

// CutFraction returns |E^r| / |E| (0 for edgeless graphs).
func (d *Decomposition) CutFraction(g *graph.Graph) float64 {
	if g.M() == 0 {
		return 0
	}
	return float64(len(d.Removed)) / float64(g.M())
}

// ClusterView returns the zero-copy view of cluster i. Cluster vertex lists
// are sorted ascending, so local ID j is the cluster's j-th smallest vertex;
// Materialize gives an independent copy.
func (d *Decomposition) ClusterView(g *graph.Graph, i int) *graph.View {
	return g.Induce(d.Clusters[i])
}

// LargestCluster returns the size of the largest cluster.
func (d *Decomposition) LargestCluster() int {
	max := 0
	for _, c := range d.Clusters {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// Report summarizes a verification pass.
type Report struct {
	// CutOK is true when |E^r| ≤ ε·|E|.
	CutOK bool
	// CutFraction is the measured |E^r|/|E|.
	CutFraction float64
	// MinConductance is the smallest cluster conductance observed: exact for
	// clusters of at most conductance.MaxExactN vertices, and otherwise a
	// Cheeger estimate, half the spectral gap estimated after 300 power
	// iterations, which is not a certified lower bound (see
	// conductance.EstimateBounds).
	MinConductance float64
	// ConductanceOK is true when every multi-vertex cluster's conductance,
	// exact or estimated as for MinConductance, meets d.Phi.
	ConductanceOK bool
	// Exact is true when every cluster was checked exactly.
	Exact bool
	// Connected is true when every cluster induces a connected subgraph.
	Connected bool
}

// Verify checks the decomposition contract on g. rng drives the spectral
// estimation for clusters too large for exact conductance.
func (d *Decomposition) Verify(g *graph.Graph, rng *rand.Rand) Report {
	rep := Report{
		CutFraction:    d.CutFraction(g),
		MinConductance: math.Inf(1),
		ConductanceOK:  true,
		Exact:          true,
		Connected:      true,
	}
	rep.CutOK = float64(len(d.Removed)) <= d.Eps*float64(g.M())+1e-9
	for i := range d.Clusters {
		sub := d.ClusterView(g, i)
		if sub.N() <= 1 {
			continue
		}
		if !sub.Connected() {
			rep.Connected = false
			rep.ConductanceOK = false
			rep.MinConductance = 0
			continue
		}
		var phi float64
		if sub.N() <= conductance.MaxExactN {
			phi = conductance.ExactConductance(sub)
		} else {
			rep.Exact = false
			phi = conductance.EstimateBounds(sub, 300, rng).Lower
		}
		if phi < rep.MinConductance {
			rep.MinConductance = phi
		}
		if phi < d.Phi-1e-12 {
			rep.ConductanceOK = false
		}
	}
	if math.IsInf(rep.MinConductance, 1) {
		rep.MinConductance = 0
	}
	return rep
}

// PhiTarget returns the conductance target φ = ε / (4·log₂(m+2)) used by
// Decompose, the standard existential trade-off φ = Θ(ε / log n).
func PhiTarget(eps float64, m int) float64 {
	if m < 2 {
		m = 2
	}
	return eps / (4 * math.Log2(float64(m)+2))
}

// Options tunes Decompose.
type Options struct {
	// Phi overrides the conductance target (0 means PhiTarget(eps, m)).
	Phi float64
	// Seed drives the spectral estimation. A fixed Seed gives a fixed
	// decomposition.
	Seed int64
	// Workers bounds the decomposer's goroutine pool: the recursion's
	// independent pieces fan out to at most Workers goroutines (0 or 1 runs
	// them all on the caller). Each piece's randomness is derived by hashing
	// (Seed, piece vertex set), so the output is a pure function of the
	// graph, eps and the other options: the same at every Workers and under
	// every schedule. See parallel.go and DESIGN.md §3.12.
	Workers int
}

// Decompose computes an (ε, φ) expander decomposition of g with
// φ = PhiTarget(eps, |E|) by recursive sparse cuts: any piece whose best
// found cut has conductance below φ is split and the cut edges are removed;
// pieces with no such cut become clusters.
//
// The removed-edge budget follows from the standard charging argument: every
// cut taken satisfies |∂S| < φ·vol(smaller side), and each edge's side can
// halve in volume at most log₂(2m) times, so the total removed is at most
// φ·2m·log₂(2m) ≤ ε·m for φ = ε/(4·log₂(m+2)).
func Decompose(g *graph.Graph, eps float64, opts Options) (*Decomposition, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("expander: eps must be in (0,1), got %v", eps)
	}
	phi := opts.Phi
	if phi == 0 {
		phi = PhiTarget(eps, g.M())
	}
	d := &Decomposition{
		Assignment: make(primitives.ClusterAssignment, g.N()),
		Eps:        eps,
		Phi:        phi,
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	p := newDecomposer(g, phi, opts)
	for _, verts := range p.solve(all) {
		d.addCluster(verts)
	}
	d.Removed = removedList(p.removed)
	return d, nil
}

// removedList extracts the set bits of a removed-edge bitmap as the sorted
// edge-index slice the Decomposition contract requires (ascending for free,
// the bitmap being indexed by edge id).
func removedList(removed []bool) []int {
	count := 0
	for _, r := range removed {
		if r {
			count++
		}
	}
	out := make([]int, 0, count)
	for ei, r := range removed {
		if r {
			out = append(out, ei)
		}
	}
	return out
}

func (d *Decomposition) addCluster(verts []int) {
	id := len(d.Clusters)
	sorted := append([]int(nil), verts...)
	sort.Ints(sorted)
	d.Clusters = append(d.Clusters, sorted)
	for _, v := range sorted {
		d.Assignment[v] = id
	}
}

// bestSparseCut searches for a low-conductance cut of sub, aimed at the
// piece's conductance target phi: exactly (conductance.ExactCut) for
// pieces of at most 14 vertices, otherwise via spectral sweeps from three
// random starts plus a BFS-order sweep and two PageRank-Nibble runs. Returns
// the cut (as a local-vertex set) and its conductance.
//
// Each spectral trial is a Chebyshev filter aimed at phi and a sweep
// (conductance.Fiedler.Filter). By Cheeger's inequality a cut below phi
// needs a lazy-walk eigenvalue above 1 − phi, and the filter damps the
// spectrum on [0, 1 − 2·phi] in 60 to 300 products (60 on every piece
// measured). TestCutSearchQualityMatchesPowerIteration holds the search, on
// a fixed table of pieces, to finding a cut below phi at least as often as
// one whose trials run 300 power iterations.
//
// The trials are the bulk of the search, and split over two goroutines:
// trials 1 and 2 run one after the other on a helper while this goroutine
// runs trial 0, the BFS sweep and the nibbles. One helper keeps a Workers = 1
// decomposition on at most two CPUs, so Options.Workers remains the way to
// use more. The result is that of running the search step by step, to the
// bit, by three rules. All randomness is drawn first, on the calling
// goroutine and in the sequential order: every trial's start vector, then
// the two nibble seeds. A trial reads only sub and the shared Fiedler state
// and writes only its own candidate slot. The winner is picked by scanning
// the candidates in the sequential order with a strict <.
func bestSparseCut(sub graph.G, phi float64, rng *rand.Rand) (map[int]bool, float64) {
	n := sub.N()
	if n < 2 {
		return nil, math.Inf(1)
	}
	if n <= 14 {
		return conductance.ExactCut(sub)
	}
	const trials = 3
	f := conductance.NewFiedler(sub)
	vecs := make([]float64, 3*n*trials) // per trial: start vector, two scratch
	for t := 0; t < trials; t++ {
		f.Start(vecs[3*t*n:(3*t+1)*n], rng)
	}
	// PageRank-Nibble local clustering (the Spielman–Teng style primitive
	// behind nibble decompositions) from two random seeds.
	seeds := [2]int{rng.Intn(n), rng.Intn(n)}

	// The candidates, in the order the winner is picked: the spectral
	// trials, the BFS sweep and the two nibbles.
	var c struct {
		wg  sync.WaitGroup
		cut [6]map[int]bool
		phi [6]float64
	}
	trial := func(t int) {
		v := vecs[3*t*n : 3*(t+1)*n]
		c.cut[t], c.phi[t] = conductance.SweepCut(sub, f.Filter(v[:n], v[n:2*n], v[2*n:], phi))
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for t := 1; t < trials; t++ {
			trial(t)
		}
	}()
	trial(0)
	// BFS sweep from an arbitrary vertex as a combinatorial fallback.
	dist, _ := graph.BFSOf(sub, 0)
	scores := make([]float64, n)
	for v := range scores {
		if dist[v] < 0 {
			scores[v] = float64(n + 1)
		} else {
			scores[v] = float64(dist[v])
		}
	}
	c.cut[3], c.phi[3] = conductance.SweepCut(sub, scores)
	epsPush := 1.0 / (20 * float64(sub.M()+1))
	for i, seed := range seeds {
		c.cut[4+i], c.phi[4+i] = conductance.Nibble(sub, seed, 0.1, epsPush)
	}
	c.wg.Wait()

	// Every sweep cut is a proper nonempty subset; a nibble's may not be.
	bestPhi := math.Inf(1)
	var best map[int]bool
	for i, s := range c.cut {
		if len(s) > 0 && len(s) < n && c.phi[i] < bestPhi {
			bestPhi, best = c.phi[i], s
		}
	}
	return best, bestPhi
}

// Singletons returns the trivial decomposition where every vertex is alone
// and every edge is removed. It satisfies any φ vacuously but only meets the
// ε budget for ε = 1; used as a baseline and as the §2.3 failure fallback.
func Singletons(g *graph.Graph) *Decomposition {
	d := &Decomposition{
		Assignment: primitives.Singletons(g.N()),
		Eps:        1,
		Phi:        0,
	}
	d.Clusters = make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		d.Clusters[v] = []int{v}
	}
	d.Removed = make([]int, g.M())
	for i := range d.Removed {
		d.Removed[i] = i
	}
	return d
}

// FromAssignment builds a Decomposition from an arbitrary cluster
// assignment: removed edges are exactly those crossing clusters. Cluster IDs
// are renumbered densely.
func FromAssignment(g *graph.Graph, assign primitives.ClusterAssignment, eps, phi float64) *Decomposition {
	remap := make(map[int]int)
	d := &Decomposition{
		Assignment: make(primitives.ClusterAssignment, g.N()),
		Eps:        eps,
		Phi:        phi,
	}
	for v := 0; v < g.N(); v++ {
		id, ok := remap[assign[v]]
		if !ok {
			id = len(d.Clusters)
			remap[assign[v]] = id
			d.Clusters = append(d.Clusters, nil)
		}
		d.Assignment[v] = id
		d.Clusters[id] = append(d.Clusters[id], v)
	}
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		if d.Assignment[e.U] != d.Assignment[e.V] {
			d.Removed = append(d.Removed, i)
		}
	}
	return d
}
