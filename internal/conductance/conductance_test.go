package conductance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"expandergap/internal/graph"
)

// cutSize returns |∂(S)|: the number of edges with exactly one endpoint in s.
func cutSize(g graph.G, s map[int]bool) int {
	return len(graph.CutEdgesOf(g, s))
}

// cutConductance returns Φ(S) = |∂(S)| / min(vol(S), vol(V\S)) as defined
// in Section 2 of the paper, the oracle the cut searches' results are
// checked against. By convention Φ(∅) = Φ(V) = 0. A cut with min-volume 0
// (isolated vertices only on one side) has conductance +Inf unless it is
// also edgeless, in which case 0.
func cutConductance(g graph.G, s map[int]bool) float64 {
	inCount := 0
	volS := 0
	for v := 0; v < g.N(); v++ {
		if s[v] {
			inCount++
			volS += g.Degree(v)
		}
	}
	if inCount == 0 || inCount == g.N() {
		return 0
	}
	minVol := min(volS, 2*g.M()-volS)
	cut := cutSize(g, s)
	if minVol == 0 {
		if cut == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(cut) / float64(minVol)
}

func TestCutConductanceKnown(t *testing.T) {
	// C4: cut of two adjacent vertices has |∂S| = 2, vol = 4 -> Φ = 1/2.
	g := graph.Cycle(4)
	s := map[int]bool{0: true, 1: true}
	if got := cutConductance(g, s); got != 0.5 {
		t.Errorf("C4 adjacent pair conductance = %v, want 0.5", got)
	}
	// Trivial cuts have conductance 0.
	if got := cutConductance(g, map[int]bool{}); got != 0 {
		t.Errorf("empty cut = %v, want 0", got)
	}
	all := map[int]bool{0: true, 1: true, 2: true, 3: true}
	if got := cutConductance(g, all); got != 0 {
		t.Errorf("full cut = %v, want 0", got)
	}
}

func TestExactConductanceKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		// K4: every cut S with |S|=1: 3/3=1; |S|=2: 4/6=2/3. Min = 2/3.
		{"K4", graph.Complete(4), 2.0 / 3.0},
		// C6: antipodal cut 2/6 = 1/3; the minimum over all cuts.
		{"C6", graph.Cycle(6), 1.0 / 3.0},
		// Path P4: middle edge cut 1/min(3,3)... vol(P4)=6; cut {0,1}: 1/3.
		{"P4", graph.Path(4), 1.0 / 3.0},
		// Two triangles joined by a bridge: bridge cut 1/7.
		{"barbell", barbell(), 1.0 / 7.0},
		// Disconnected graph has conductance 0.
		{"disconnected", graph.Disjoint(graph.Cycle(3), graph.Cycle(3)), 0},
		// Star K_{1,3}: any single leaf: 1/1 = 1; pair of leaves 2/2=1; min=1.
		{"star", graph.Star(3), 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ExactConductance(tc.g)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Φ = %v, want %v", got, tc.want)
			}
		})
	}
}

func barbell() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	b.AddEdge(2, 3)
	return b.Graph()
}

func TestExactConductancePanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n > MaxExactN")
		}
	}()
	ExactConductance(graph.Path(MaxExactN + 1))
}

// Property: exact conductance is a lower bound for every explicit cut.
func TestQuickExactIsMinimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := graph.ErdosRenyi(n, 0.5, rng)
		phi := ExactConductance(g)
		for trial := 0; trial < 20; trial++ {
			s := make(map[int]bool)
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					s[v] = true
				}
			}
			if len(s) == 0 || len(s) == n {
				continue
			}
			if c := cutConductance(g, s); c < phi-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLazyWalkStepConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(12, 0.3, rng)
	p := make([]float64, g.N())
	q := make([]float64, g.N())
	p[0] = 1
	for i := 0; i < 50; i++ {
		LazyWalkStep(g, q, p)
		p, q = q, p
		var sum float64
		for _, x := range p {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mass not conserved at step %d: %v", i, sum)
		}
	}
}

func TestWalkDistributionConvergesToStationary(t *testing.T) {
	g := graph.Complete(6)
	p := make([]float64, g.N())
	q := make([]float64, g.N())
	p[0] = 1
	for i := 0; i < 60; i++ {
		LazyWalkStep(g, q, p)
		p, q = q, p
	}
	pi := StationaryDistribution(g)
	for v := range p {
		if math.Abs(p[v]-pi[v]) > 1e-6 {
			t.Errorf("p[%d] = %v, want ~%v", v, p[v], pi[v])
		}
	}
}

func TestStationaryDistributionSumsToOne(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(5), graph.Grid(3, 3), graph.Path(1)} {
		pi := StationaryDistribution(g)
		var sum float64
		for _, x := range pi {
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("stationary sums to %v on %v", sum, g)
		}
	}
}

func TestMixingTimeOrdering(t *testing.T) {
	// Cliques mix much faster than cycles of the same size.
	tK, okK := MixingTime(graph.Complete(8), 1000)
	tC, okC := MixingTime(graph.Cycle(8), 1000)
	if !okK || !okC {
		t.Fatalf("mixing time search did not converge: K8 ok=%v C8 ok=%v", okK, okC)
	}
	if tK >= tC {
		t.Errorf("K8 mixing (%d) should beat C8 mixing (%d)", tK, tC)
	}
	if tK < 1 {
		t.Errorf("K8 mixing = %d, expected >= 1", tK)
	}
	// Singleton mixes instantly.
	if tt, ok := MixingTime(graph.Path(1), 10); !ok || tt != 0 {
		t.Errorf("singleton mixing = %d (ok=%v), want 0", tt, ok)
	}
}

func TestMixingTimeCapReported(t *testing.T) {
	if _, ok := MixingTime(graph.Cycle(40), 3); ok {
		t.Error("cycle of 40 cannot mix in 3 steps")
	}
}

func TestSpectralGapSeparatesExpandersFromCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gapK := SpectralGap(graph.Complete(16), 300, rng)
	gapC := SpectralGap(graph.Cycle(16), 300, rng)
	if gapK <= gapC {
		t.Errorf("K16 gap (%v) should exceed C16 gap (%v)", gapK, gapC)
	}
	gapDisc := SpectralGap(graph.Disjoint(graph.Cycle(4), graph.Cycle(4)), 300, rng)
	if gapDisc > 0.01 {
		t.Errorf("disconnected gap = %v, want ~0", gapDisc)
	}
}

func TestSweepCutFindsBottleneck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := barbell()
	scores := FiedlerScores(g, 400, rng)
	s, phi := SweepCut(g, scores)
	if math.Abs(phi-1.0/7.0) > 1e-9 {
		t.Errorf("sweep conductance = %v, want 1/7", phi)
	}
	if len(s) != 3 {
		t.Errorf("sweep side size = %d, want 3", len(s))
	}
	// The cut must separate the two triangles.
	if s[0] != s[1] || s[1] != s[2] || s[0] == s[3] {
		t.Errorf("sweep cut does not split the barbell: %v", s)
	}
}

func TestSweepCutDegenerate(t *testing.T) {
	if s, _ := SweepCut(graph.Path(1), []float64{0}); s != nil {
		t.Error("sweep on singleton should be nil")
	}
	s, phi := SweepCut(graph.Path(2), []float64{0, 1})
	if len(s) != 1 || phi != 1 {
		t.Errorf("P2 sweep = %v phi=%v, want size-1 set with phi=1", s, phi)
	}
}

func TestEstimateBoundsBracketExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range []*graph.Graph{
		graph.Cycle(12),
		graph.Complete(8),
		graph.Grid(4, 4),
		barbell(),
	} {
		exact := ExactConductance(g)
		b := EstimateBounds(g, 500, rng)
		if b.Upper < exact-1e-9 {
			t.Errorf("%v: upper bound %v below exact %v", g, b.Upper, exact)
		}
		if b.Lower > exact+1e-9 {
			t.Errorf("%v: Cheeger lower bound %v above exact %v", g, b.Lower, exact)
		}
	}
}

// Property: sweep cut conductance is always >= exact conductance (it is a
// genuine cut) on small random graphs.
func TestQuickSweepUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := graph.ErdosRenyi(n, 0.5, rng)
		if g.M() == 0 {
			return true
		}
		exact := ExactConductance(g)
		scores := FiedlerScores(g, 200, rng)
		_, phi := SweepCut(g, scores)
		return phi >= exact-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHypercubeConductanceMatchesTheory(t *testing.T) {
	// The paper cites hypercubes as the tight example: Φ(Q_d) = 1/d
	// (dimension cut). Verify exactly for d = 3, 4.
	for _, d := range []int{3, 4} {
		g := graph.Hypercube(d)
		got := ExactConductance(g)
		want := 1.0 / float64(d)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Φ(Q_%d) = %v, want %v", d, got, want)
		}
	}
}
