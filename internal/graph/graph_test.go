package graph

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// FromEdges builds an unweighted graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Graph()
}

// MinDegree returns the minimum vertex degree, or 0 for an empty graph. Like
// MaxDegree, the value is cached at build time, so this is O(1).
func (g *Graph) MinDegree() int { return g.minDeg }

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(2, 3)
	b.AddEdge(1, 2)
	g := b.Graph()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3 (duplicate must be deduped)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing")
	}
	if g.HasEdge(0, 3) {
		t.Error("edge {0,3} should not exist")
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("Degree(1) = %d, want 2", d)
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"self-loop", func() { NewBuilder(3).AddEdge(1, 1) }},
		{"out-of-range", func() { NewBuilder(3).AddEdge(0, 3) }},
		{"negative-vertex", func() { NewBuilder(3).AddEdge(-1, 0) }},
		{"negative-n", func() { NewBuilder(-1) }},
		{"zero-weight", func() { NewBuilder(3).AddWeightedEdge(0, 1, 0) }},
		{"bad-sign", func() { NewBuilder(3).AddSignedEdge(0, 1, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// TestBuilderTryAdd pins the non-panicking variants: invalid endpoints come
// back as wrapped sentinel errors, and valid edges still land in the graph.
func TestBuilderTryAdd(t *testing.T) {
	b := NewBuilder(3)
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"negative-vertex", b.TryAddEdge(-1, 0), ErrVertexRange},
		{"out-of-range", b.TryAddEdge(0, 3), ErrVertexRange},
		{"self-loop", b.TryAddEdge(1, 1), ErrSelfLoop},
		{"weighted-out-of-range", b.TryAddWeightedEdge(5, 0, 2), ErrVertexRange},
		{"signed-negative", b.TryAddSignedEdge(-2, 1, +1), ErrVertexRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(tc.err, tc.want) {
				t.Fatalf("error %q does not wrap %v", tc.err, tc.want)
			}
		})
	}
	if err := b.TryAddEdge(0, 1); err != nil {
		t.Fatalf("valid TryAddEdge: %v", err)
	}
	if err := b.TryAddWeightedEdge(1, 2, 7); err != nil {
		t.Fatalf("valid TryAddWeightedEdge: %v", err)
	}
	g := b.Graph()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (rejected edges must not be recorded)", g.M())
	}
	if idx, ok := g.EdgeIndex(1, 2); !ok || g.Weight(idx) != 7 {
		t.Fatal("weighted edge from TryAddWeightedEdge missing")
	}
}

func TestEdgeIndicesDeterministic(t *testing.T) {
	b1 := NewBuilder(4)
	b1.AddEdge(2, 3)
	b1.AddEdge(0, 1)
	b2 := NewBuilder(4)
	b2.AddEdge(0, 1)
	b2.AddEdge(3, 2)
	g1, g2 := b1.Graph(), b2.Graph()
	for i := 0; i < g1.M(); i++ {
		if g1.EdgeAt(i) != g2.EdgeAt(i) {
			t.Fatalf("edge order differs at %d: %v vs %v", i, g1.EdgeAt(i), g2.EdgeAt(i))
		}
	}
}

func TestWeightsAndSigns(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 7)
	b.AddWeightedEdge(1, 2, 3)
	g := b.Graph()
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	idx, ok := g.EdgeIndex(0, 1)
	if !ok || g.Weight(idx) != 7 {
		t.Errorf("Weight({0,1}) = %d, want 7", g.Weight(idx))
	}
	if g.MaxWeight() != 7 {
		t.Errorf("MaxWeight = %d, want 7", g.MaxWeight())
	}
	if g.TotalWeight() != 10 {
		t.Errorf("TotalWeight = %d, want 10", g.TotalWeight())
	}

	bs := NewBuilder(3)
	bs.AddSignedEdge(0, 1, 1)
	bs.AddSignedEdge(1, 2, -1)
	gs := bs.Graph()
	if !gs.Signed() {
		t.Fatal("graph should be signed")
	}
	i1, _ := gs.EdgeIndex(1, 2)
	if gs.Sign(i1) != -1 {
		t.Errorf("Sign({1,2}) = %d, want -1", gs.Sign(i1))
	}
	// Unweighted graphs report weight 1.
	if gs.Weight(i1) != 1 {
		t.Errorf("unsigned weight = %d, want 1", gs.Weight(i1))
	}
}

// TestBuilderLastAdditionWins: a repeated edge takes the weight and sign of
// its last addition, a plain re-add resets the weight to 1 without making
// the graph unweighted, and Graph can be called again after more additions
// without touching the graphs it returned before.
func TestBuilderLastAdditionWins(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 7)
	b.AddEdge(1, 0)
	b.AddSignedEdge(2, 3, -1)
	b.AddSignedEdge(3, 2, 1)
	b.AddWeightedEdge(1, 2, 5)
	weightOf := func(g *Graph, u, v int) int64 {
		t.Helper()
		idx, ok := g.EdgeIndex(u, v)
		if !ok {
			t.Fatalf("edge {%d,%d} missing", u, v)
		}
		return g.Weight(idx)
	}
	g1 := b.Graph()
	if g1.M() != 3 || !g1.Weighted() || !g1.Signed() {
		t.Fatalf("first graph: m=%d weighted=%v signed=%v, want 3 true true", g1.M(), g1.Weighted(), g1.Signed())
	}
	if w := weightOf(g1, 0, 1); w != 1 {
		t.Errorf("weight of re-added {0,1} = %d, want 1", w)
	}
	if idx, _ := g1.EdgeIndex(2, 3); g1.Sign(idx) != 1 {
		t.Errorf("sign of re-added {2,3} = %d, want +1", g1.Sign(idx))
	}
	b.AddWeightedEdge(2, 1, 9)
	b.AddEdge(0, 3)
	g2 := b.Graph()
	if g2.M() != 4 || weightOf(g2, 1, 2) != 9 || weightOf(g2, 0, 3) != 1 {
		t.Errorf("second graph: m=%d w{1,2}=%d w{0,3}=%d, want 4 9 1", g2.M(), weightOf(g2, 1, 2), weightOf(g2, 0, 3))
	}
	if g1.M() != 3 || weightOf(g1, 1, 2) != 5 {
		t.Errorf("first graph changed after more additions: m=%d w{1,2}=%d", g1.M(), weightOf(g1, 1, 2))
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Error("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint should panic")
		}
	}()
	e.Other(5)
}

// TestInducedSubgraph, TestSubgraphFromEdgeSetAndRemove and
// TestQuickInducedSubgraph check the naive subgraph copies the view tests
// compare against (subgraph_ref_test.go).
func TestInducedSubgraph(t *testing.T) {
	g := Grid(3, 3)
	sub, toOld := inducedSubgraph(g, []int{0, 1, 3, 4})
	if sub.N() != 4 {
		t.Fatalf("sub.N = %d, want 4", sub.N())
	}
	if sub.M() != 4 { // the 2x2 corner of a grid is a 4-cycle
		t.Fatalf("sub.M = %d, want 4", sub.M())
	}
	for newV, oldV := range toOld {
		if g.Degree(oldV) < sub.Degree(newV) {
			t.Errorf("induced degree grew for %d", oldV)
		}
	}
	// Weights survive induction.
	wg := WithRandomWeights(g, 50, rand.New(rand.NewSource(1)))
	wsub, toOld2 := inducedSubgraph(wg, []int{0, 1, 2})
	for i := 0; i < wsub.M(); i++ {
		e := wsub.EdgeAt(i)
		oi, ok := wg.EdgeIndex(toOld2[e.U], toOld2[e.V])
		if !ok {
			t.Fatalf("edge %v missing in parent", e)
		}
		if wsub.Weight(i) != wg.Weight(oi) {
			t.Errorf("weight mismatch on %v", e)
		}
	}
}

func TestSubgraphFromEdgeSetAndRemove(t *testing.T) {
	g := Cycle(5)
	keep := map[int]bool{0: true, 2: true}
	sub := subgraphFromEdgeSet(g, keep)
	if sub.M() != 2 || sub.N() != 5 {
		t.Fatalf("sub = %v, want n=5 m=2", sub)
	}
	rem := removeEdges(g, keep)
	if rem.M() != 3 {
		t.Fatalf("rem.M = %d, want 3", rem.M())
	}
}

func TestCutEdges(t *testing.T) {
	g := Grid(2, 4)                                       // two rows of 4
	s := map[int]bool{0: true, 1: true, 4: true, 5: true} // left half
	cut := CutEdgesOf(g, s)
	if len(cut) != 2 {
		t.Fatalf("cut size = %d, want 2", len(cut))
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(5)
	dist, parent := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	if parent[0] != 0 || parent[4] != 3 {
		t.Errorf("parents wrong: %v", parent)
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("Diameter = %d, want 4", d)
	}
	if d := Cycle(6).Diameter(); d != 3 {
		t.Errorf("C6 diameter = %d, want 3", d)
	}
	if d := Grid(3, 3).Diameter(); d != 4 {
		t.Errorf("grid diameter = %d, want 4", d)
	}
}

func TestComponents(t *testing.T) {
	g := Disjoint(Cycle(3), Path(2), Path(1))
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	if g.Connected() {
		t.Error("disjoint union should not be connected")
	}
	ids := g.ComponentIDs()
	if ids[0] != ids[1] || ids[0] == ids[3] {
		t.Errorf("ComponentIDs wrong: %v", ids)
	}

	// Interleaved components whose BFS order runs downward (0 5 4 3 and
	// 1 7 6 2): members still come out ascending, components by smallest
	// vertex.
	b := NewBuilder(9)
	for _, e := range [][2]int{{0, 5}, {5, 4}, {4, 3}, {1, 7}, {7, 6}, {6, 2}} {
		b.AddEdge(e[0], e[1])
	}
	want := [][]int{{0, 3, 4, 5}, {1, 2, 6, 7}, {8}}
	if got := b.Graph().Components(); !reflect.DeepEqual(got, want) {
		t.Errorf("interleaved components = %v, want %v", got, want)
	}
}

func TestTreeAndCycleChecks(t *testing.T) {
	if Path(7).HasCycle() {
		t.Error("path has no cycle")
	}
	if !Cycle(4).HasCycle() {
		t.Error("cycle has a cycle")
	}
	rng := rand.New(rand.NewSource(42))
	if tree := RandomTree(50, rng); !tree.Connected() || tree.M() != tree.N()-1 {
		t.Error("RandomTree should be a tree")
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name     string
		g        *Graph
		n, m     int
		mustConn bool
	}{
		{"path", Path(6), 6, 5, true},
		{"cycle", Cycle(6), 6, 6, true},
		{"complete", Complete(5), 5, 10, true},
		{"bipartite", CompleteBipartite(3, 3), 6, 9, true},
		{"star", Star(4), 5, 4, true},
		{"grid", Grid(4, 5), 20, 31, true},
		{"torus", Torus(4, 5), 20, 40, true},
		{"trigrid", TriangulatedGrid(3, 3), 9, 16, true},
		{"hypercube", Hypercube(4), 16, 32, true},
		{"binary-tree", BalancedBinaryTree(10), 10, 9, true},
		{"maximal-planar", RandomMaximalPlanar(20, rng), 20, 3*20 - 6, true},
		{"outerplanar", RandomOuterplanar(12, rng), 12, 2*12 - 3, true},
		{"ktree", KTree(15, 3, rng), 15, 4*3/2 + (15-4)*3, true},
		{"wheel", Wheel(6), 7, 12, true},
		{"prism", Prism(5), 10, 15, true},
		{"doubletorus", DoubleTorus(4), 32, 66, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n {
				t.Errorf("N = %d, want %d", tc.g.N(), tc.n)
			}
			if tc.g.M() != tc.m {
				t.Errorf("M = %d, want %d", tc.g.M(), tc.m)
			}
			if tc.mustConn && !tc.g.Connected() {
				t.Error("generator output should be connected")
			}
		})
	}
}

func TestRandomPlanarConnectedAndSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{10, 50, 200} {
		g := RandomPlanar(n, 0.5, rng)
		if !g.Connected() {
			t.Errorf("RandomPlanar(%d) disconnected", n)
		}
		if g.M() > 3*n-6 {
			t.Errorf("RandomPlanar(%d) too many edges: %d", n, g.M())
		}
	}
}

func TestSubdivide(t *testing.T) {
	k5 := Complete(5)
	sub := Subdivide(k5, 2)
	if sub.N() != 5+10*2 {
		t.Errorf("N = %d, want %d", sub.N(), 25)
	}
	if sub.M() != 10*3 {
		t.Errorf("M = %d, want 30", sub.M())
	}
	if sub.MaxDegree() != 4 {
		t.Errorf("subdivided K5 max degree = %d, want 4", sub.MaxDegree())
	}
	if !sub.Connected() {
		t.Error("subdivision should stay connected")
	}
}

func TestAttachPendantStars(t *testing.T) {
	g := Cycle(4)
	h := AttachPendantStars(g, []int{0, 2}, 3)
	if h.N() != 4+6 || h.M() != 4+6 {
		t.Fatalf("got n=%d m=%d", h.N(), h.M())
	}
	if h.Degree(0) != 5 {
		t.Errorf("Degree(0) = %d, want 5", h.Degree(0))
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Sets() != 6 {
		t.Fatalf("Sets = %d, want 6", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("unions should succeed")
	}
	if uf.Union(0, 2) {
		t.Error("union of same set should return false")
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Error("Find wrong")
	}
	if uf.Sets() != 4 {
		t.Errorf("Sets = %d, want 4", uf.Sets())
	}
}

func TestBiconnectedComponents(t *testing.T) {
	// Two triangles sharing vertex 2 (an articulation point).
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(2, 4)
	g := b.Graph()
	comps := g.BiconnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("got %d biconnected components, want 2", len(comps))
	}
	for _, c := range comps {
		if len(c) != 3 {
			t.Errorf("component size %d, want 3", len(c))
		}
	}
}

func TestVolumeAndDensity(t *testing.T) {
	if d := Complete(4).EdgeDensity(); d != 1.5 {
		t.Errorf("K4 density = %v, want 1.5", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Cycle(4)
	cp := g.Clone()
	if cp.N() != g.N() || cp.M() != g.M() {
		t.Fatal("clone differs in size")
	}
	if &cp.edges[0] == &g.edges[0] {
		t.Error("clone shares edge storage")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*Graph{
		Grid(3, 4),
		WithRandomWeights(Cycle(6), 100, rng),
		WithRandomSigns(Complete(5), 0.5, rng),
	} {
		var buf writerBuffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("round trip size mismatch: %v vs %v", got, g)
		}
		for i := 0; i < g.M(); i++ {
			if got.EdgeAt(i) != g.EdgeAt(i) || got.Weight(i) != g.Weight(i) || got.Sign(i) != g.Sign(i) {
				t.Fatalf("edge %d mismatch after round trip", i)
			}
		}
	}
}

// writerBuffer is a minimal io.ReadWriter to avoid importing bytes in tests.
// It is deliberately NOT an io.Seeker, so reads through it exercise the
// parser's buffered (non-seekable) path.
type writerBuffer struct {
	data []byte
	pos  int
}

func (b *writerBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writerBuffer) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += n
	return n, nil
}

func TestReadEdgeListErrors(t *testing.T) {
	bad := []string{
		"",
		"3\n",
		"3 1\n",
		"3 1 bogus\n0 1\n",
		"x 1\n",
		"3 1\n0 1 5\n",
	}
	for _, s := range bad {
		buf := &writerBuffer{data: []byte(s)}
		if _, err := ReadEdgeList(buf); err == nil {
			t.Errorf("input %q: expected error", s)
		}
	}
}

// Property: for random graphs, the sum of degrees equals twice the edge
// count, adjacency is symmetric, and EdgeIndex agrees with the edge list.
func TestQuickHandshakeAndSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := ErdosRenyi(n, 0.3, rng)
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(v)
		}
		if degSum != 2*g.M() {
			return false
		}
		for idx, e := range g.Edges() {
			gotIdx, ok := g.EdgeIndex(e.U, e.V)
			if !ok || gotIdx != idx {
				return false
			}
			if revIdx, ok := g.EdgeIndex(e.V, e.U); !ok || revIdx != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: induced subgraph of a random vertex subset has exactly the edges
// with both endpoints inside.
func TestQuickInducedSubgraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := ErdosRenyi(n, 0.4, rng)
		var verts []int
		inSet := make(map[int]bool)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				verts = append(verts, v)
				inSet[v] = true
			}
		}
		sub, toOld := inducedSubgraph(g, verts)
		want := 0
		for _, e := range g.Edges() {
			if inSet[e.U] && inSet[e.V] {
				want++
			}
		}
		if sub.M() != want {
			return false
		}
		for _, e := range sub.Edges() {
			if !g.HasEdge(toOld[e.U], toOld[e.V]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: disjoint union sizes add up and components never mix.
func TestQuickDisjointUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := ErdosRenyi(2+rng.Intn(10), 0.5, rng)
		c := ErdosRenyi(2+rng.Intn(10), 0.5, rng)
		u := Disjoint(a, c)
		if u.N() != a.N()+c.N() || u.M() != a.M()+c.M() {
			return false
		}
		// No edge crosses the boundary.
		for _, e := range u.Edges() {
			if (e.U < a.N()) != (e.V < a.N()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPlantedSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, block := WithPlantedSigns(Grid(4, 4), 4, 0, rng)
	if !g.Signed() {
		t.Fatal("planted graph should be signed")
	}
	for idx, e := range g.Edges() {
		want := int8(-1)
		if block[e.U] == block[e.V] {
			want = 1
		}
		if g.Sign(idx) != want {
			t.Fatalf("edge %v sign = %d, want %d", e, g.Sign(idx), want)
		}
	}
}

func TestMinMaxDegree(t *testing.T) {
	g := Star(4)
	if g.MaxDegree() != 4 || g.MinDegree() != 1 {
		t.Errorf("star degrees: max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	empty := NewBuilder(0).Graph()
	if empty.MaxDegree() != 0 || empty.MinDegree() != 0 {
		t.Error("empty graph degrees should be 0")
	}
	if empty.EdgeDensity() != 0 {
		t.Error("empty graph density should be 0")
	}
	if !empty.Connected() {
		t.Error("empty graph is connected by convention")
	}
}
