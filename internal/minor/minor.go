package minor

import (
	"fmt"
	"sort"
	"strings"

	"expandergap/internal/graph"
)

// HasMinor reports whether h is a minor of g, exactly.
//
// The search uses the characterization that h ≤ g iff some graph obtained
// from g by contracting a (possibly empty) set of edges contains a subgraph
// isomorphic to h. It therefore branches on edge contractions with a
// subgraph-isomorphism base case, memoizing visited labeled graphs.
// Exponential in the worst case; intended for the small graphs that cluster
// leaders handle locally (n ≲ 20 with small h such as K5 or K3,3).
func HasMinor(g, h *graph.Graph) bool {
	if h.N() == 0 || h.M() == 0 && h.N() <= g.N() {
		return h.N() <= g.N()
	}
	memo := make(map[string]bool)
	return hasMinor(adjFromGraph(g), adjMatrixFromGraph(h), h.N(), memo)
}

// adj is a compact mutable adjacency-set representation used during the
// contraction search. Vertices are identified by position; contracted
// vertices are removed by swap-with-last.
type adjSets []map[int]bool

func adjFromGraph(g *graph.Graph) adjSets {
	a := make(adjSets, g.N())
	for v := 0; v < g.N(); v++ {
		a[v] = make(map[int]bool)
	}
	for _, e := range g.Edges() {
		a[e.U][e.V] = true
		a[e.V][e.U] = true
	}
	return a
}

func adjMatrixFromGraph(h *graph.Graph) [][]bool {
	m := make([][]bool, h.N())
	for i := range m {
		m[i] = make([]bool, h.N())
	}
	for _, e := range h.Edges() {
		m[e.U][e.V] = true
		m[e.V][e.U] = true
	}
	return m
}

func (a adjSets) edgeCount() int {
	c := 0
	for _, s := range a {
		c += len(s)
	}
	return c / 2
}

func (a adjSets) key() string {
	var sb strings.Builder
	for v, s := range a {
		nbrs := make([]int, 0, len(s))
		for u := range s {
			if u > v {
				nbrs = append(nbrs, u)
			}
		}
		sort.Ints(nbrs)
		for _, u := range nbrs {
			fmt.Fprintf(&sb, "%d-%d;", v, u)
		}
	}
	return sb.String()
}

// contract merges v into u (u keeps its identity, v is removed by moving the
// last vertex into v's slot) and returns a fresh adjSets.
func (a adjSets) contract(u, v int) adjSets {
	n := len(a)
	b := make(adjSets, n-1)
	// Relabel: every vertex keeps its index except v, which disappears, and
	// n-1, which moves to v's slot (if v != n-1).
	relabel := func(x int) int {
		switch {
		case x == v:
			return u // merged into u
		case x == n-1 && v != n-1:
			return v
		default:
			return x
		}
	}
	_ = relabel
	idx := func(x int) int {
		if x == n-1 && v != n-1 {
			return v
		}
		return x
	}
	for x := 0; x < n; x++ {
		if x == v {
			continue
		}
		nx := idx(x)
		if b[nx] == nil {
			b[nx] = make(map[int]bool)
		}
		for y := range a[x] {
			var ny int
			if y == v {
				ny = idx(u)
			} else {
				ny = idx(y)
			}
			if ny == nx {
				continue // contracting removes the {u,v} self-loop
			}
			b[nx][ny] = true
		}
	}
	// Merge v's other neighbors into u.
	nu := idx(u)
	for y := range a[v] {
		if y == u {
			continue
		}
		ny := idx(y)
		if ny == nu {
			continue
		}
		b[nu][ny] = true
		b[ny][nu] = true
	}
	return b
}

func hasMinor(g adjSets, h [][]bool, hn int, memo map[string]bool) bool {
	if len(g) < hn {
		return false
	}
	hm := 0
	for i := range h {
		for j := i + 1; j < len(h); j++ {
			if h[i][j] {
				hm++
			}
		}
	}
	if g.edgeCount() < hm {
		return false
	}
	key := g.key()
	if res, ok := memo[key]; ok {
		return res
	}
	memo[key] = false // provisional; avoids revisits on this path
	if subgraphIso(g, h) {
		memo[key] = true
		return true
	}
	// Branch on contractions.
	n := len(g)
	for u := 0; u < n; u++ {
		for v := range g[u] {
			if v < u {
				continue
			}
			if hasMinor(g.contract(u, v), h, hn, memo) {
				memo[key] = true
				return true
			}
		}
	}
	return false
}

// subgraphIso reports whether the pattern h embeds into g as a subgraph
// (injective vertex map preserving h's edges). Plain backtracking with
// degree pruning.
func subgraphIso(g adjSets, h [][]bool) bool {
	hn := len(h)
	gn := len(g)
	if hn > gn {
		return false
	}
	hdeg := make([]int, hn)
	for i := range h {
		for j := range h[i] {
			if h[i][j] {
				hdeg[i]++
			}
		}
	}
	// Order pattern vertices by decreasing degree for early pruning.
	order := make([]int, hn)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return hdeg[order[a]] > hdeg[order[b]] })

	assign := make([]int, hn) // h vertex -> g vertex
	for i := range assign {
		assign[i] = -1
	}
	used := make([]bool, gn)

	var try func(step int) bool
	try = func(step int) bool {
		if step == hn {
			return true
		}
		hv := order[step]
		for gv := 0; gv < gn; gv++ {
			if used[gv] || len(g[gv]) < hdeg[hv] {
				continue
			}
			ok := true
			for prev := 0; prev < step; prev++ {
				hu := order[prev]
				if h[hv][hu] && !g[gv][assign[hu]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assign[hv] = gv
			used[gv] = true
			if try(step + 1) {
				return true
			}
			assign[hv] = -1
			used[gv] = false
		}
		return false
	}
	return try(0)
}

// Property is a minor-closed graph property described by its finite set of
// forbidden minors (the Robertson–Seymour characterization used throughout
// §3.4 of the paper). A graph has the property iff it contains none of the
// forbidden minors.
type Property struct {
	// Name is a human-readable label such as "planar".
	Name string
	// Forbidden is the finite list of forbidden minors.
	Forbidden []*graph.Graph
	// Check optionally overrides the generic minor search with an exact
	// specialized decision procedure (for example Demoucron for planarity).
	// When nil the generic HasMinor search is used.
	Check func(*graph.Graph) bool
}

// Holds reports whether g has the property.
func (p Property) Holds(g *graph.Graph) bool {
	if p.Check != nil {
		return p.Check(g)
	}
	for _, h := range p.Forbidden {
		if HasMinor(g, h) {
			return false
		}
	}
	return true
}

// CliqueNumberBound returns the smallest s such that K_s does not satisfy
// the property, following the H = K_s selection step of the paper's §3.4
// algorithm, probing s = 1, 2, ... up to max. The boolean is false if every
// probed clique satisfies the property (a trivial property per the paper).
func (p Property) CliqueNumberBound(max int) (int, bool) {
	for s := 1; s <= max; s++ {
		if !p.Holds(graph.Complete(s)) {
			return s, true
		}
	}
	return 0, false
}

// Planarity is the planar-graphs property with forbidden minors {K5, K3,3}
// and Demoucron's algorithm as the exact decision procedure.
func Planarity() Property {
	return Property{
		Name:      "planar",
		Forbidden: []*graph.Graph{graph.Complete(5), graph.CompleteBipartite(3, 3)},
		Check:     IsPlanar,
	}
}

// Forests is the acyclic-graphs property with forbidden minor {K3}.
func Forests() Property {
	return Property{
		Name:      "forest",
		Forbidden: []*graph.Graph{graph.Complete(3)},
		Check:     func(g *graph.Graph) bool { return !g.HasCycle() },
	}
}
