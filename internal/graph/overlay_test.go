package graph

import (
	"errors"
	"math/rand"
	"testing"
)

// checkOverlayEquivalent asserts that a and b present byte-identical
// observables through the G interface: same N/M, same degrees, same
// neighbor/edge-index streams, same edges, weights and signs per index.
func checkOverlayEquivalent(t *testing.T, tag string, a, b G) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("%s: shape mismatch: (n=%d,m=%d) vs (n=%d,m=%d)", tag, a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("%s: Degree(%d): %d vs %d", tag, v, a.Degree(v), b.Degree(v))
		}
		type arc struct{ u, idx int }
		var aa, bb []arc
		a.ForEachNeighbor(v, func(u, idx int) { aa = append(aa, arc{u, idx}) })
		b.ForEachNeighbor(v, func(u, idx int) { bb = append(bb, arc{u, idx}) })
		if len(aa) != len(bb) {
			t.Fatalf("%s: ForEachNeighbor(%d): %d arcs vs %d", tag, v, len(aa), len(bb))
		}
		for i := range aa {
			if aa[i] != bb[i] {
				t.Fatalf("%s: ForEachNeighbor(%d) arc %d: %+v vs %+v", tag, v, i, aa[i], bb[i])
			}
		}
	}
	for idx := 0; idx < a.M(); idx++ {
		if a.EdgeAt(idx) != b.EdgeAt(idx) {
			t.Fatalf("%s: EdgeAt(%d): %v vs %v", tag, idx, a.EdgeAt(idx), b.EdgeAt(idx))
		}
		if a.Weight(idx) != b.Weight(idx) {
			t.Fatalf("%s: Weight(%d): %d vs %d", tag, idx, a.Weight(idx), b.Weight(idx))
		}
		if a.Sign(idx) != b.Sign(idx) {
			t.Fatalf("%s: Sign(%d): %d vs %d", tag, idx, a.Sign(idx), b.Sign(idx))
		}
	}
}

func TestOverlayNoDeltasMatchesBase(t *testing.T) {
	for _, g := range []*Graph{
		Grid(4, 5),
		WithRandomWeights(Path(7), 9, rand.New(rand.NewSource(1))),
		WithRandomSigns(Cycle(6), 0.5, rand.New(rand.NewSource(2))),
		NewBuilder(3).Graph(),
	} {
		ov := NewOverlay(g)
		checkOverlayEquivalent(t, g.String(), ov, g)
		c, err := ov.Compact()
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}
		checkOverlayEquivalent(t, g.String()+" compact", c, g)
	}
}

func TestOverlayBasicMutations(t *testing.T) {
	// Path 0-1-2-3 plus an isolated vertex 4.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Graph()
	ov := NewOverlay(g)

	if err := ov.AddEdge(0, 3); err != nil {
		t.Fatalf("AddEdge(0,3): %v", err)
	}
	if err := ov.AddEdge(3, 4); err != nil {
		t.Fatalf("AddEdge(3,4): %v", err)
	}
	if err := ov.DeleteEdge(1, 2); err != nil {
		t.Fatalf("DeleteEdge(1,2): %v", err)
	}
	if ov.N() != 5 || ov.M() != 4 {
		t.Fatalf("shape after mutations: n=%d m=%d, want 5/4", ov.N(), ov.M())
	}
	if ov.Degree(1) != 1 || ov.Degree(3) != 3 {
		t.Fatalf("degrees: deg(1)=%d deg(3)=%d, want 1/3", ov.Degree(1), ov.Degree(3))
	}
	if ov.HasEdge(1, 2) || !ov.HasEdge(0, 3) {
		t.Fatal("HasEdge disagrees with mutations")
	}
	// The overlay must match the graph built from scratch with the same edges.
	want := FromEdges(5, []Edge{{0, 1}, {0, 3}, {2, 3}, {3, 4}})
	checkOverlayEquivalent(t, "mutated", ov, want)
	c, err := ov.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkOverlayEquivalent(t, "compacted", c, want)

	// Error paths are sentinel-wrapped, and failed ops change nothing.
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"dup base edge", ov.AddEdge(0, 1), ErrEdgeExists},
		{"dup inserted edge", ov.AddEdge(0, 3), ErrEdgeExists},
		{"missing delete", ov.DeleteEdge(1, 2), ErrEdgeMissing},
		{"never-present delete", ov.DeleteEdge(0, 4), ErrEdgeMissing},
		{"self-loop", ov.AddEdge(2, 2), ErrSelfLoop},
		{"negative endpoint", ov.AddEdge(-1, 2), ErrVertexRange},
		{"out-of-range endpoint", ov.AddEdge(0, 5), ErrVertexRange},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.err, c.want)
		}
	}
	checkOverlayEquivalent(t, "after failed ops", ov, want)
}

func TestOverlayVertexOps(t *testing.T) {
	ov := NewOverlay(Path(3)) // 0-1-2
	v := ov.AddVertex()
	if v != 3 || ov.N() != 4 || ov.Degree(3) != 0 {
		t.Fatalf("AddVertex: id=%d n=%d deg=%d", v, ov.N(), ov.Degree(3))
	}
	if err := ov.AddEdge(2, 3); err != nil {
		t.Fatalf("AddEdge(2,3): %v", err)
	}
	if err := ov.DeleteVertex(1); err != nil {
		t.Fatalf("DeleteVertex(1): %v", err)
	}
	// Vertex 1 is isolated but its ID survives (dense IDs).
	if ov.N() != 4 || ov.M() != 1 || ov.Degree(1) != 0 {
		t.Fatalf("after DeleteVertex: n=%d m=%d deg(1)=%d", ov.N(), ov.M(), ov.Degree(1))
	}
	if err := ov.AddEdge(0, 1); !errors.Is(err, ErrVertexDeleted) {
		t.Fatalf("AddEdge to deleted vertex: got %v, want ErrVertexDeleted", err)
	}
	if err := ov.DeleteVertex(1); !errors.Is(err, ErrVertexDeleted) {
		t.Fatalf("double DeleteVertex: got %v, want ErrVertexDeleted", err)
	}
	want := FromEdges(4, []Edge{{2, 3}})
	checkOverlayEquivalent(t, "vertex ops", ov, want)
	c, err := ov.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkOverlayEquivalent(t, "vertex ops compacted", c, want)
}

func TestOverlayResurrectCarriesNewAnnotations(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 2, 7)
	g := b.Graph()
	ov := NewOverlay(g)
	if err := ov.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ov.AddWeightedEdge(0, 1, 11); err != nil {
		t.Fatal(err)
	}
	wb := NewBuilder(3)
	wb.AddWeightedEdge(0, 1, 11)
	wb.AddWeightedEdge(1, 2, 7)
	want := wb.Graph()
	checkOverlayEquivalent(t, "resurrected", ov, want)
	c, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	checkOverlayEquivalent(t, "resurrected compacted", c, want)

	// Deleting again drops the override; a plain re-add reads weight 1.
	if err := ov.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ov.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if w := ov.Weight(0); w != 1 {
		t.Fatalf("plain resurrect weight: got %d, want 1", w)
	}
}

func TestGenerateChurnDeterministicAndAppliable(t *testing.T) {
	g := WithRandomWeights(Grid(8, 8), 10, rand.New(rand.NewSource(3)))
	ops, err := GenerateChurn(g, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	ops2, err := GenerateChurn(g, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 50 || len(ops2) != 50 {
		t.Fatalf("op counts: %d, %d", len(ops), len(ops2))
	}
	for i := range ops {
		if ops[i] != ops2[i] {
			t.Fatalf("op %d differs between identical runs: %+v vs %+v", i, ops[i], ops2[i])
		}
	}
	diff, err := GenerateChurn(g, 50, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ops {
		if ops[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
	// The stream must replay cleanly, with weighted inserts in range.
	ov := NewOverlay(g)
	for i, op := range ops {
		if op.Kind == OpAddEdge && (op.W < 1 || op.W > g.MaxWeight()) {
			t.Fatalf("op %d: insert weight %d outside [1,%d]", i, op.W, g.MaxWeight())
		}
		if err := ov.Apply(op); err != nil {
			t.Fatalf("op %d (%+v): %v", i, op, err)
		}
	}
	if _, err := ov.Compact(); err != nil {
		t.Fatalf("Compact after churn: %v", err)
	}
}

// FuzzOverlayEquivalence drives a random op sequence over a random base graph
// and pins the tentpole contract: the overlay, its Compact() materialization,
// and a from-scratch Builder over the same live edge set are byte-identical
// under ForEachNeighbor/Degree/EdgeAt/Weight/Sign.
func FuzzOverlayEquivalence(f *testing.F) {
	f.Add(uint8(12), int64(1), int64(2), uint8(0), uint8(60))
	f.Add(uint8(20), int64(42), int64(7), uint8(1), uint8(120))
	f.Add(uint8(9), int64(7), int64(9), uint8(2), uint8(200))
	f.Add(uint8(2), int64(99), int64(3), uint8(0), uint8(30))
	f.Add(uint8(33), int64(5), int64(11), uint8(1), uint8(255))
	f.Fuzz(func(t *testing.T, nRaw uint8, edgeSeed, opSeed int64, mode uint8, opsRaw uint8) {
		n := int(nRaw%40) + 2
		base := buildFuzzGraph(n, edgeSeed, mode)
		ov := NewOverlay(base)

		// Mirror of the live state, updated alongside the overlay. Op choices
		// are driven by the overlay + rng only, so the mirror never influences
		// the stream.
		type ws struct {
			w int64
			s int8
		}
		live := make(map[Edge]ws, base.M())
		for i := 0; i < base.M(); i++ {
			live[base.EdgeAt(i)] = ws{base.Weight(i), base.Sign(i)}
		}
		curN := base.N()
		dead := make([]bool, base.N(), base.N()+64)

		rng := rand.New(rand.NewSource(opSeed))
		for i := 0; i < int(opsRaw); i++ {
			switch k := rng.Intn(12); {
			case k == 0: // add vertex
				id := ov.AddVertex()
				if id != curN {
					t.Fatalf("AddVertex: got id %d, want %d", id, curN)
				}
				curN++
				dead = append(dead, false)
			case k == 1: // delete a random vertex
				v := rng.Intn(curN)
				err := ov.DeleteVertex(v)
				if dead[v] {
					if !errors.Is(err, ErrVertexDeleted) {
						t.Fatalf("DeleteVertex(dead %d): %v", v, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("DeleteVertex(%d): %v", v, err)
				}
				dead[v] = true
				for e := range live {
					if e.U == v || e.V == v {
						delete(live, e)
					}
				}
			case k <= 6: // add a random edge
				u, v := rng.Intn(curN), rng.Intn(curN)
				var w int64
				if base.Weighted() {
					w = int64(rng.Intn(50) + 1)
				}
				wantErr := u == v || dead[u] || dead[v] || ov.HasEdge(u, v)
				var err error
				if w > 0 {
					err = ov.AddWeightedEdge(u, v, w)
				} else {
					err = ov.AddEdge(u, v)
				}
				if wantErr {
					if err == nil {
						t.Fatalf("AddEdge(%d,%d) should have failed", u, v)
					}
					continue
				}
				if err != nil {
					t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
				}
				if w == 0 {
					w = 1
				}
				live[Edge{U: min(u, v), V: max(u, v)}] = ws{w, 1}
			default: // delete a random live edge
				if ov.M() == 0 {
					continue
				}
				e := ov.EdgeAt(rng.Intn(ov.M()))
				if err := ov.DeleteEdge(e.U, e.V); err != nil {
					t.Fatalf("DeleteEdge(%v): %v", e, err)
				}
				delete(live, e)
			}
		}
		if len(live) != ov.M() || curN != ov.N() {
			t.Fatalf("mirror diverged: (n=%d,m=%d) vs overlay (n=%d,m=%d)", curN, len(live), ov.N(), ov.M())
		}

		// Reference: the same live edge set built from scratch.
		b := NewBuilder(curN)
		for e, a := range live {
			switch {
			case base.Weighted():
				b.AddWeightedEdge(e.U, e.V, a.w)
			case base.Signed():
				b.AddSignedEdge(e.U, e.V, a.s)
			default:
				b.AddEdge(e.U, e.V)
			}
		}
		want := b.Graph()

		checkOverlayEquivalent(t, "overlay vs rebuilt", ov, want)
		compacted, err := ov.Compact()
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}
		checkOverlayEquivalent(t, "compacted vs rebuilt", compacted, want)
	})
}
