package graph

import (
	"fmt"
	"math/rand"
)

// This file contains the workload generators used throughout the experiment
// suite. All generators are deterministic given their *rand.Rand (callers
// seed explicitly), and every family is chosen to exercise a graph class the
// paper talks about: planar graphs (grids, triangulations, outerplanar),
// bounded-genus graphs (tori), bounded-treewidth graphs (k-trees), trees,
// and non-minor-free controls (cliques, hypercubes, expanders via G(n,p)).

// Path returns the path graph on n vertices.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Graph()
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Graph()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Graph()
}

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	bld := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(i, a+j)
		}
	}
	return bld.Graph()
}

// Star returns the star K_{1,k} with center 0.
func Star(k int) *Graph {
	b := NewBuilder(k + 1)
	for i := 1; i <= k; i++ {
		b.AddEdge(0, i)
	}
	return b.Graph()
}

// Grid returns the rows×cols grid graph (planar). Vertex (r, c) has ID
// r*cols + c.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Graph()
}

// Torus returns the rows×cols toroidal grid (genus 1, K5-minor-free for
// large enough grids is false in general, but it is bounded-genus and hence
// H-minor-free for a suitable fixed H). Requires rows, cols >= 3 to stay
// simple.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus needs rows, cols >= 3, got %dx%d", rows, cols))
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Graph()
}

// TriangulatedGrid returns the rows×cols grid with one diagonal added in
// every unit square, a denser planar family than Grid.
func TriangulatedGrid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
			if r+1 < rows && c+1 < cols {
				b.AddEdge(id(r, c), id(r+1, c+1))
			}
		}
	}
	return b.Graph()
}

// Wheel returns the wheel graph W_n: a cycle on n >= 3 rim vertices
// (IDs 1..n) plus a hub (ID 0) adjacent to every rim vertex. Planar, with a
// Θ(n)-degree hub — a stress case for degree-sensitive routines.
func Wheel(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: wheel needs n >= 3 rim vertices, got %d", n))
	}
	b := NewBuilder(n + 1)
	for i := 1; i <= n; i++ {
		b.AddEdge(0, i)
		next := i + 1
		if next > n {
			next = 1
		}
		b.AddEdge(i, next)
	}
	return b.Graph()
}

// Prism returns the prism over an n-cycle (the circular ladder CL_n): two
// concentric n-cycles joined by rungs. Planar and 3-regular.
func Prism(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: prism needs n >= 3, got %d", n))
	}
	b := NewBuilder(2 * n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(n+i, n+(i+1)%n)
		b.AddEdge(i, n+i)
	}
	return b.Graph()
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices. Hypercubes
// are the paper's canonical example (§2) of graphs whose expander
// decompositions need φ = O(1/log n); they are a control (not minor-free).
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Graph()
}

// DoubleTorus returns a genus-2 surface graph: two side×side toroidal grids
// joined by two "handle" edges. Bounded-genus graphs are among the paper's
// headline minor-closed classes beyond planarity.
func DoubleTorus(side int) *Graph {
	a := Torus(side, side)
	n := 2 * a.N()
	b := NewBuilder(n)
	for _, e := range a.Edges() {
		b.AddEdge(e.U, e.V)
		b.AddEdge(e.U+a.N(), e.V+a.N())
	}
	b.AddEdge(0, a.N())
	b.AddEdge(side-1, a.N()+side-1)
	return b.Graph()
}

// RandomTree returns a uniform-attachment random tree on n vertices: vertex i
// attaches to a uniformly random earlier vertex.
func RandomTree(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, rng.Intn(i))
	}
	return b.Graph()
}

// BalancedBinaryTree returns a complete binary tree on n vertices (vertex i
// has children 2i+1 and 2i+2 when in range).
func BalancedBinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if l := 2*i + 1; l < n {
			b.AddEdge(i, l)
		}
		if r := 2*i + 2; r < n {
			b.AddEdge(i, r)
		}
	}
	return b.Graph()
}

// RandomMaximalPlanar returns a random maximal planar graph (triangulation)
// on n >= 3 vertices, built by repeatedly inserting a new vertex into a
// uniformly random face of the current triangulation and connecting it to
// the face's three corners. The result is planar by construction with
// exactly 3n-6 edges. It is RandomMaximalPlanarStream on one worker.
func RandomMaximalPlanar(n int, rng *rand.Rand) *Graph {
	return RandomMaximalPlanarStream(n, rng, 1)
}

// RandomPlanar returns a random planar graph on n vertices with approximately
// the given edge fraction of a maximal triangulation: it builds a random
// triangulation and keeps each edge independently with probability keep
// (clamped to [0, 1]), always keeping a spanning structure connected by
// re-adding deleted edges as needed. It is RandomPlanarStream on one worker.
func RandomPlanar(n int, keep float64, rng *rand.Rand) *Graph {
	return RandomPlanarStream(n, keep, rng, 1)
}

// RandomOuterplanar returns a random maximal outerplanar graph on n >= 3
// vertices: the cycle 0..n-1 plus a random triangulation of the polygon's
// interior (non-crossing chords).
func RandomOuterplanar(n int, rng *rand.Rand) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: outerplanar needs n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	// Triangulate polygon [lo..hi] with random non-crossing chords.
	var tri func(poly []int)
	tri = func(poly []int) {
		if len(poly) < 3 {
			return
		}
		if len(poly) == 3 {
			return
		}
		// Pick a random ear apex strictly between the fixed base edge
		// (poly[0], poly[last]).
		k := 1 + rng.Intn(len(poly)-2)
		if k != 1 {
			b.AddEdge(poly[0], poly[k])
		}
		if k != len(poly)-2 {
			b.AddEdge(poly[k], poly[len(poly)-1])
		}
		tri(poly[:k+1])
		tri(poly[k:])
	}
	poly := make([]int, n)
	for i := range poly {
		poly[i] = i
	}
	tri(poly)
	return b.Graph()
}

// KTree returns a random k-tree on n vertices (treewidth exactly k for
// n > k): start from K_{k+1} and repeatedly attach a new vertex to a random
// existing k-clique. Requires n >= k+1.
func KTree(n, k int, rng *rand.Rand) *Graph {
	if n < k+1 {
		panic(fmt.Sprintf("graph: k-tree needs n >= k+1, got n=%d k=%d", n, k))
	}
	b := NewBuilder(n)
	cliques := make([][]int, 0, n)
	base := make([]int, 0, k+1)
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.AddEdge(i, j)
		}
		base = append(base, i)
	}
	// All k-subsets of the base clique are attachable k-cliques.
	for drop := 0; drop <= k; drop++ {
		c := make([]int, 0, k)
		for _, v := range base {
			if v != drop {
				c = append(c, v)
			}
		}
		cliques = append(cliques, c)
	}
	for v := k + 1; v < n; v++ {
		c := cliques[rng.Intn(len(cliques))]
		for _, u := range c {
			b.AddEdge(v, u)
		}
		// New k-cliques: v together with each (k-1)-subset of c.
		for drop := 0; drop < len(c); drop++ {
			nc := make([]int, 0, k)
			nc = append(nc, v)
			for i, u := range c {
				if i != drop {
					nc = append(nc, u)
				}
			}
			cliques = append(cliques, nc)
		}
	}
	return b.Graph()
}

// ErdosRenyi returns G(n, p). Not minor-free; used as a control and as an
// expander source for routing tests.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Graph()
}

// Subdivide returns g with every edge subdivided k times (k new degree-2
// vertices per edge). Subdividing preserves planarity and topological-minor
// containment, so subdivided K5/K3,3 are the canonical non-planar tests.
func Subdivide(g *Graph, k int) *Graph {
	if k <= 0 {
		return g.Clone()
	}
	n := g.N() + g.M()*k
	b := NewBuilder(n)
	next := g.N()
	for _, e := range g.Edges() {
		prev := e.U
		for i := 0; i < k; i++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
		b.AddEdge(prev, e.V)
	}
	return b.Graph()
}

// Disjoint returns the disjoint union of the given graphs. Vertices are
// renumbered consecutively in argument order. Weights and signs are
// preserved.
func Disjoint(gs ...*Graph) *Graph {
	total := 0
	for _, g := range gs {
		total += g.N()
	}
	b := NewBuilder(total)
	off := 0
	for _, g := range gs {
		for idx, e := range g.Edges() {
			switch {
			case g.Weighted():
				b.AddWeightedEdge(e.U+off, e.V+off, g.Weight(idx))
			case g.Signed():
				b.AddSignedEdge(e.U+off, e.V+off, g.Sign(idx))
			default:
				b.AddEdge(e.U+off, e.V+off)
			}
		}
		off += g.N()
	}
	return b.Graph()
}

// AttachPendantStars returns g with a (size)-star attached at each vertex in
// at. Stars are pendant trees, so planarity and minor-freeness are preserved.
// Used to exercise the 2-star elimination preprocessing of §3.2.
func AttachPendantStars(g *Graph, at []int, size int) *Graph {
	n := g.N() + len(at)*size
	b := NewBuilder(n)
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	next := g.N()
	for _, v := range at {
		for i := 0; i < size; i++ {
			b.AddEdge(v, next)
			next++
		}
	}
	return b.Graph()
}

// WithRandomWeights returns a copy of g with integer edge weights drawn
// uniformly from [1, maxW].
func WithRandomWeights(g *Graph, maxW int64, rng *rand.Rand) *Graph {
	if maxW < 1 {
		panic(fmt.Sprintf("graph: maxW must be >= 1, got %d", maxW))
	}
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddWeightedEdge(e.U, e.V, 1+rng.Int63n(maxW))
	}
	return b.Graph()
}

// WithRandomSigns returns a copy of g where each edge is labeled + with
// probability pPlus and - otherwise.
func WithRandomSigns(g *Graph, pPlus float64, rng *rand.Rand) *Graph {
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		s := int8(-1)
		if rng.Float64() < pPlus {
			s = 1
		}
		b.AddSignedEdge(e.U, e.V, s)
	}
	return b.Graph()
}

// WithPlantedSigns returns a copy of g signed according to a planted
// partition: vertices are assigned to blocks of the given size (consecutive
// IDs); intra-block edges are labeled +, inter-block edges are labeled -,
// and then each label is flipped independently with probability noise. The
// planted clustering is returned as the block assignment.
func WithPlantedSigns(g *Graph, blockSize int, noise float64, rng *rand.Rand) (*Graph, []int) {
	if blockSize < 1 {
		panic(fmt.Sprintf("graph: blockSize must be >= 1, got %d", blockSize))
	}
	block := make([]int, g.N())
	for v := range block {
		block[v] = v / blockSize
	}
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		s := int8(-1)
		if block[e.U] == block[e.V] {
			s = 1
		}
		if rng.Float64() < noise {
			s = -s
		}
		b.AddSignedEdge(e.U, e.V, s)
	}
	return b.Graph(), block
}
