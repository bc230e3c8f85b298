package graph

import (
	"math/rand"
	"testing"
)

// MinDegree returns the minimum view degree (0 for an empty view).
func (s *View) MinDegree() int {
	if s.N() == 0 {
		return 0
	}
	d := s.Degree(0)
	for v := 1; v < s.N(); v++ {
		d = min(d, s.Degree(v))
	}
	return d
}

// requireSameGraph asserts that the view and the materialized graph agree on
// every observable: sizes, degrees, neighbor/edge-index rows, edge endpoints,
// weights, and signs.
func requireSameGraph(t *testing.T, s *View, want *Graph) {
	t.Helper()
	if s.N() != want.N() || s.M() != want.M() {
		t.Fatalf("size mismatch: view (n=%d, m=%d), graph (n=%d, m=%d)",
			s.N(), s.M(), want.N(), want.M())
	}
	if s.MaxDegree() != want.MaxDegree() {
		t.Fatalf("MaxDegree: view %d, graph %d", s.MaxDegree(), want.MaxDegree())
	}
	if s.MinDegree() != want.MinDegree() {
		t.Fatalf("MinDegree: view %d, graph %d", s.MinDegree(), want.MinDegree())
	}
	if s.Weighted() != want.Weighted() || s.Signed() != want.Signed() {
		t.Fatalf("weighted/signed flags differ")
	}
	for v := 0; v < want.N(); v++ {
		if s.Degree(v) != want.Degree(v) {
			t.Fatalf("Degree(%d): view %d, graph %d", v, s.Degree(v), want.Degree(v))
		}
		var vu, vi, gu, gi []int
		s.ForEachNeighbor(v, func(u, idx int) { vu = append(vu, u); vi = append(vi, idx) })
		want.ForEachNeighbor(v, func(u, idx int) { gu = append(gu, u); gi = append(gi, idx) })
		for k := range gu {
			if vu[k] != gu[k] || vi[k] != gi[k] {
				t.Fatalf("neighbor row %d position %d: view (%d, e%d), graph (%d, e%d)",
					v, k, vu[k], vi[k], gu[k], gi[k])
			}
		}
	}
	for idx := 0; idx < want.M(); idx++ {
		ve, ge := s.EdgeAt(idx), want.EdgeAt(idx)
		if ve != ge {
			t.Fatalf("EdgeAt(%d): view %v, graph %v", idx, ve, ge)
		}
		if s.Weight(idx) != want.Weight(idx) {
			t.Fatalf("Weight(%d): view %d, graph %d", idx, s.Weight(idx), want.Weight(idx))
		}
		if s.Sign(idx) != want.Sign(idx) {
			t.Fatalf("Sign(%d): view %d, graph %d", idx, s.Sign(idx), want.Sign(idx))
		}
		if got, ok := s.EdgeIndex(ge.U, ge.V); !ok || got != idx {
			t.Fatalf("EdgeIndex(%d, %d): view (%d, %v), want (%d, true)", ge.U, ge.V, got, ok, idx)
		}
	}
}

func evenVertices(n int) []int {
	var vs []int
	for v := 0; v < n; v += 2 {
		vs = append(vs, v)
	}
	return vs
}

func TestViewMatchesInducedSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		g    *Graph
	}{
		{"grid8x8", Grid(8, 8)},
		{"trigrid6x6", TriangulatedGrid(6, 6)},
		{"planar60", RandomMaximalPlanar(60, rng)},
		{"weighted", WithRandomWeights(Grid(6, 6), 50, rng)},
		{"signed", WithRandomSigns(Cycle(20), 0.5, rng)},
		{"star", Star(9)},
		{"empty", NewBuilder(5).Graph()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verts := evenVertices(tc.g.N())
			view := tc.g.Induce(verts)
			want, toOld := inducedSubgraph(tc.g, verts)
			requireSameGraph(t, view, want)
			base := view.BaseVertices()
			for i := range toOld {
				if base[i] != toOld[i] {
					t.Fatalf("BaseVertices[%d] = %d, inducedSubgraph mapping %d", i, base[i], toOld[i])
				}
			}
			mat, matOld := view.Materialize()
			requireSameGraph(t, view, mat)
			for i := range toOld {
				if matOld[i] != toOld[i] {
					t.Fatalf("Materialize mapping[%d] = %d, want %d", i, matOld[i], toOld[i])
				}
			}
		})
	}
}

func TestViewAcceptsUnsortedVertices(t *testing.T) {
	g := Grid(5, 5)
	// Induce assigns local IDs in ascending base order regardless of input
	// order, so the reference subgraph is built from the sorted set.
	view := g.Induce([]int{12, 0, 7, 24, 3, 18})
	want, _ := inducedSubgraph(g, []int{0, 3, 7, 12, 18, 24})
	requireSameGraph(t, view, want)
}

func TestInduceFilteredMatchesRemoveEdges(t *testing.T) {
	g := TriangulatedGrid(7, 7)
	verts := evenVertices(g.N())
	sub, toOld := inducedSubgraph(g, verts)
	// Drop every third surviving edge, expressed in base indices for the view
	// and local indices for removeEdges.
	dropBase := make(map[int]bool)
	dropLocal := make(map[int]bool)
	for i := 0; i < sub.M(); i++ {
		if i%3 != 0 {
			continue
		}
		e := sub.EdgeAt(i)
		oi, ok := g.EdgeIndex(toOld[e.U], toOld[e.V])
		if !ok {
			t.Fatalf("edge %v missing from base graph", e)
		}
		dropBase[oi] = true
		dropLocal[i] = true
	}
	view := g.InduceFiltered(verts, func(ei int) bool { return dropBase[ei] })
	want := removeEdges(sub, dropLocal)
	requireSameGraph(t, view, want)
}

func TestViewTraversalsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomPlanar(80, 0.6, rng)
	verts := evenVertices(g.N())
	view := g.Induce(verts)
	want, _ := inducedSubgraph(g, verts)

	if got, w := view.Connected(), want.Connected(); got != w {
		t.Fatalf("Connected: view %v, graph %v", got, w)
	}
	if got, w := view.Diameter(), want.Diameter(); got != w {
		t.Fatalf("Diameter: view %d, graph %d", got, w)
	}
	vc, gc := view.Components(), want.Components()
	if len(vc) != len(gc) {
		t.Fatalf("Components: view %d, graph %d", len(vc), len(gc))
	}
	for i := range gc {
		if len(vc[i]) != len(gc[i]) {
			t.Fatalf("component %d: view size %d, graph size %d", i, len(vc[i]), len(gc[i]))
		}
		for j := range gc[i] {
			if vc[i][j] != gc[i][j] {
				t.Fatalf("component %d[%d]: view %d, graph %d", i, j, vc[i][j], gc[i][j])
			}
		}
	}
	for src := 0; src < want.N(); src++ {
		vd, vp := view.BFS(src)
		gd, gp := want.BFS(src)
		for v := range gd {
			if vd[v] != gd[v] || vp[v] != gp[v] {
				t.Fatalf("BFS(%d) at %d: view (%d, %d), graph (%d, %d)",
					src, v, vd[v], vp[v], gd[v], gp[v])
			}
		}
	}
}

func TestViewWholeGraph(t *testing.T) {
	g := Wheel(10)
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	view := g.Induce(all)
	requireSameGraph(t, view, g)
	for i := 0; i < view.M(); i++ {
		if view.BaseEdge(i) != i {
			t.Fatalf("BaseEdge(%d) = %d on whole-graph view", i, view.BaseEdge(i))
		}
	}
}

func TestInducePanics(t *testing.T) {
	g := Path(4)
	for name, verts := range map[string][]int{
		"duplicate":  {0, 1, 1},
		"negative":   {-1, 2},
		"outOfRange": {0, 4},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Induce(%v) did not panic", verts)
				}
			}()
			g.Induce(verts)
		})
	}
}

// buildFuzzGraph derives a deterministic graph from the fuzz inputs: n
// vertices and up to 3n candidate edges drawn from a seeded PRNG, optionally
// weighted or signed.
func buildFuzzGraph(n int, edgeSeed int64, mode uint8) *Graph {
	rng := rand.New(rand.NewSource(edgeSeed))
	b := NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		switch mode % 3 {
		case 0:
			b.AddEdge(u, v)
		case 1:
			b.AddWeightedEdge(u, v, int64(rng.Intn(100)+1))
		default:
			if rng.Intn(2) == 0 {
				b.AddSignedEdge(u, v, 1)
			} else {
				b.AddSignedEdge(u, v, -1)
			}
		}
	}
	return b.Graph()
}

// FuzzViewEquivalence checks that a zero-copy view agrees with the naive
// inducedSubgraph copy (+ removeEdges when a drop filter is active) on
// every observable, for arbitrary graphs, vertex subsets, and edge
// filters.
func FuzzViewEquivalence(f *testing.F) {
	f.Add(uint8(12), int64(1), uint64(0b101010101010), uint64(0), uint8(0))
	f.Add(uint8(20), int64(42), uint64(0xfffff), uint64(0x5555), uint8(1))
	f.Add(uint8(9), int64(7), uint64(0x1ff), uint64(0x3), uint8(2))
	f.Add(uint8(2), int64(99), uint64(0b11), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, nRaw uint8, edgeSeed int64, subsetMask, dropMask uint64, mode uint8) {
		n := int(nRaw%62) + 2
		g := buildFuzzGraph(n, edgeSeed, mode)

		var verts []int
		for v := 0; v < n; v++ {
			if subsetMask&(1<<uint(v)) != 0 {
				verts = append(verts, v)
			}
		}
		if len(verts) == 0 {
			verts = []int{0}
		}

		sub, toOld := inducedSubgraph(g, verts)
		dropBase := make(map[int]bool)
		dropLocal := make(map[int]bool)
		for i := 0; i < sub.M(); i++ {
			if dropMask&(1<<uint(i%64)) == 0 {
				continue
			}
			e := sub.EdgeAt(i)
			oi, ok := g.EdgeIndex(toOld[e.U], toOld[e.V])
			if !ok {
				t.Fatalf("subgraph edge %v missing from base", e)
			}
			dropBase[oi] = true
			dropLocal[i] = true
		}
		view := g.InduceFiltered(verts, func(ei int) bool { return dropBase[ei] })
		want := sub
		if len(dropLocal) > 0 {
			want = removeEdges(sub, dropLocal)
		}
		requireSameGraph(t, view, want)

		mat, _ := view.Materialize()
		requireSameGraph(t, view, mat)
	})
}
