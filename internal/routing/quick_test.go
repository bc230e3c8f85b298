package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// Property: on random connected graphs with random single-cluster plans and
// ample budgets, every token round-trips with intact payloads, leader load
// equals vertex count, and the accounting identities hold.
func TestQuickExchangeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		g := graph.RandomPlanar(n, 0.7, rng)
		leaderV := rng.Intn(n)
		plan := Plan{
			Cluster:       primitives.Uniform(n),
			Leader:        fill(n, leaderV),
			ForwardRounds: 8*g.M()*maxOf(g.Diameter(), 1) + 64,
			Strategy:      RandomWalk,
		}
		tokens := make([][]Token, n)
		for v := range tokens {
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				tokens[v] = append(tokens[v], Token{A: int64(v), B: int64(j)})
			}
		}
		res, metrics, err := Exchange(g, congest.Config{Seed: seed}, plan, tokens,
			func(leader int, tok Token) (int64, int64) { return tok.A * 2, tok.B + 5 })
		if err != nil || res.Undelivered != 0 {
			return false
		}
		if metrics.MaxWordsPerMsg > 8 {
			return false
		}
		totalResp := 0
		for v := range res.Responses {
			for _, r := range res.Responses[v] {
				if r.A != int64(v*2) || r.B != int64(r.Seq+5) {
					return false
				}
			}
			totalResp += len(res.Responses[v])
		}
		totalTokens := 0
		for _, ts := range tokens {
			totalTokens += len(ts)
		}
		return totalResp == totalTokens && leaderLoad(res, plan)[leaderV] == totalTokens
	}
	// Pin the input generator: the walk budget 8mD+64 is a high-probability
	// bound, not a certainty, so a time-seeded generator makes this test
	// flaky roughly once per few hundred runs. Fixed seeds keep the property
	// meaningful and the suite reproducible (DESIGN.md §3.5).
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

// Property: tree routing and walk routing deliver identical token multisets
// to the leader.
func TestQuickTreeWalkAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(12)
		g := graph.RandomPlanar(n, 0.7, rng)
		dist, parent := g.BFS(0)
		for v := range dist {
			if dist[v] < 0 {
				return true // disconnected: skip
			}
		}
		tokens := make([][]Token, n)
		for v := range tokens {
			tokens[v] = []Token{{A: int64(v * 3)}}
		}
		collect := func(strategy Strategy, par []int) map[int]bool {
			plan := Plan{
				Cluster:       primitives.Uniform(n),
				Leader:        fill(n, 0),
				Parent:        par,
				ForwardRounds: 8*g.M()*maxOf(g.Diameter(), 1) + 64,
				Strategy:      strategy,
			}
			inbox, res, _, err := GatherOnly(g, congest.Config{Seed: seed}, plan, tokens)
			if err != nil || res.Undelivered != 0 {
				return nil
			}
			seen := make(map[int]bool)
			for _, tok := range inbox[0] {
				seen[int(tok.A)] = true
			}
			return seen
		}
		walk := collect(RandomWalk, nil)
		tree := collect(TreeParent, parent)
		if walk == nil || tree == nil {
			return false
		}
		if len(walk) != len(tree) {
			return false
		}
		for k := range walk {
			if !tree[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(34))}); err != nil {
		t.Error(err)
	}
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
