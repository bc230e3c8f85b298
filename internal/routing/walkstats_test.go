package routing

import (
	"math"
	"testing"

	"expandergap/internal/conductance"
	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// The statistical bridge between Lemma 2.4's analysis and the simulation:
// leaders with larger stationary mass π(v*) = deg(v*)/vol absorb tokens
// sooner. We measure first-delivery completion across two leader choices on
// a star-ish graph — the hub (huge π) must complete far faster than a leaf.
func TestHighDegreeLeaderAbsorbsFaster(t *testing.T) {
	g := graph.Wheel(24) // hub 0 has degree 24, rim vertices degree 3
	tokens := make([][]Token, g.N())
	for v := range tokens {
		tokens[v] = []Token{{A: int64(v)}}
	}
	// With a deliberately tight budget, the completion rate exposes the
	// absorption-speed difference between leaders.
	delivered := func(leader, budget int) int {
		plan := Plan{
			Cluster:       primitives.Uniform(g.N()),
			Leader:        fill(g.N(), leader),
			ForwardRounds: budget,
			Strategy:      RandomWalk,
		}
		res, _, err := Exchange(g, congest.Config{Seed: 5}, plan, tokens, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered
	}
	budget := 60
	hub := delivered(0, budget)
	leaf := delivered(5, budget)
	if hub <= leaf {
		t.Errorf("hub leader delivered %d, leaf leader %d — expected hub to dominate", hub, leaf)
	}
	// The paper's π(v*) intuition: hub stationary mass is deg/vol = 24/96.
	pi := conductance.StationaryDistribution(g)
	if pi[0] < 3*pi[5] {
		t.Errorf("test premise broken: π(hub)=%v vs π(rim)=%v", pi[0], pi[5])
	}
}

// Exact walk-distribution evolution vs the stationary distribution: after
// O(φ⁻² log n) steps the distribution is within the paper's τ_mix tolerance.
// This pins the simulator-level walk (used by routing) to the analytical
// object the lemma reasons about.
func TestWalkDistributionMatchesMixingDefinition(t *testing.T) {
	g := graph.Torus(4, 4)
	phi := conductance.ExactConductance(g)
	steps := int(math.Ceil(4 * math.Log(float64(g.N())) / (phi * phi)))
	p := make([]float64, g.N())
	q := make([]float64, g.N())
	p[3] = 1
	for i := 0; i < steps; i++ {
		conductance.LazyWalkStep(g, q, p)
		p, q = q, p
	}
	pi := conductance.StationaryDistribution(g)
	for v := range p {
		if math.Abs(p[v]-pi[v]) > pi[v]/float64(g.N())+1e-9 {
			t.Errorf("vertex %d: |p-π| = %v above tolerance after %d steps",
				v, math.Abs(p[v]-pi[v]), steps)
		}
	}
}
