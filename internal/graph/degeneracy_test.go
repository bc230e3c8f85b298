package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDegeneracyKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", RandomTree(30, rng), 1},
		{"cycle", Cycle(10), 2},
		{"K5", Complete(5), 4},
		{"grid", Grid(5, 5), 2},
		{"maximal-planar", RandomMaximalPlanar(30, rng), 3}, // planar: 3..5; triangulations hit >=3
		{"star", Star(7), 1},
		{"empty", NewBuilder(4).Graph(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, order := tc.g.Degeneracy()
			if tc.name == "maximal-planar" {
				if got < 3 || got > 5 {
					t.Errorf("degeneracy = %d, want in [3,5] (planar)", got)
				}
			} else if got != tc.want {
				t.Errorf("degeneracy = %d, want %d", got, tc.want)
			}
			if len(order) != tc.g.N() {
				t.Errorf("peeling order covers %d of %d", len(order), tc.g.N())
			}
		})
	}
}

// Property: degeneracy is at least m/n (average-degree bound) and at most
// the maximum degree.
func TestQuickDegeneracyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := ErdosRenyi(n, 0.3, rng)
		d, _ := g.Degeneracy()
		if d > g.MaxDegree() {
			return false
		}
		return g.N() == 0 || float64(d) >= float64(g.M())/float64(g.N())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinorFreeFamiliesLowDegeneracy(t *testing.T) {
	// The structural fact the framework relies on: H-minor-free families
	// have O(1) degeneracy regardless of size.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{50, 150, 400} {
		if d, _ := RandomMaximalPlanar(n, rng).Degeneracy(); d > 5 {
			t.Errorf("planar degeneracy %d > 5 at n=%d", d, n)
		}
		if d, _ := RandomOuterplanar(n, rng).Degeneracy(); d > 2 {
			t.Errorf("outerplanar degeneracy %d > 2 at n=%d", d, n)
		}
		if d, _ := KTree(n, 3, rng).Degeneracy(); d != 3 {
			t.Errorf("3-tree degeneracy %d != 3 at n=%d", d, n)
		}
	}
}
