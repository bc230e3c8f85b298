package routing_test

import (
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
	"expandergap/internal/routing"
)

// BenchmarkWalkRoutingGrid measures random-walk token routing on an 8x8
// grid.
func BenchmarkWalkRoutingGrid(b *testing.B) { benchWalkRouting(b, 8) }

// BenchmarkE4WalkRoutingLargest runs E4-style whole-graph walk routing at
// the E4 Full-scale size (n = 256).
func BenchmarkE4WalkRoutingLargest(b *testing.B) { benchWalkRouting(b, 16) }

// benchWalkRouting routes one token per vertex of a side×side grid to
// vertex 0 under a fresh seed per iteration.
func benchWalkRouting(b *testing.B, side int) {
	g := graph.Grid(side, side)
	leader := make([]int, g.N())
	tokens := make([][]routing.Token, g.N())
	for v := range tokens {
		tokens[v] = []routing.Token{{A: int64(v)}}
	}
	plan := routing.Plan{
		Cluster:       primitives.Uniform(g.N()),
		Leader:        leader,
		ForwardRounds: 8*g.M()*g.Diameter() + 64,
		Strategy:      routing.RandomWalk,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := routing.Exchange(g, congest.Config{Seed: int64(i)}, plan, tokens, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Undelivered > 0 {
			b.Fatalf("undelivered: %d", res.Undelivered)
		}
	}
}
