package routing

import (
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// componentPlan partitions g by part(v), splits each part into its connected
// components, and makes every component a cluster led by its smallest vertex.
// Parent holds BFS parents toward that leader inside the cluster, so the plan
// serves both strategies.
func componentPlan(g *graph.Graph, part func(v int) int, budget int, strat Strategy) Plan {
	n := g.N()
	cluster := make(primitives.ClusterAssignment, n)
	leader := make([]int, n)
	parent := make([]int, n)
	for v := range cluster {
		cluster[v] = -1
	}
	next := 0
	for root := 0; root < n; root++ {
		if cluster[root] >= 0 {
			continue
		}
		cluster[root], leader[root], parent[root] = next, root, root
		queue := []int{root}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.Neighbors(u) {
				if cluster[w] < 0 && part(w) == part(root) {
					cluster[w], leader[w], parent[w] = next, root, u
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return Plan{Cluster: cluster, Leader: leader, Parent: parent, ForwardRounds: budget, Strategy: strat}
}

// tokensPer gives every vertex k tokens with distinct payloads.
func tokensPer(n, k int) [][]Token {
	tokens := make([][]Token, n)
	for v := range tokens {
		for j := 0; j < k; j++ {
			tokens[v] = append(tokens[v], Token{A: int64(8*v + j), B: int64(7*j - v)})
		}
	}
	return tokens
}

// respondMix is a responder whose answer depends on the leader and on both
// payload words, so a response routed to the wrong origin or carrying another
// token's payload changes the hash.
func respondMix(leader int, t Token) (int64, int64) {
	return 3*t.A + int64(leader), t.B ^ int64(leader+1)
}

// respondIndexed is a batch responder whose answers also encode each token's
// position in the leader's inbox, pinning the absorption order.
func respondIndexed(leader int, inbox []Token) [][2]int64 {
	out := make([][2]int64, len(inbox))
	for i, t := range inbox {
		a, b := respondMix(leader, t)
		out[i] = [2]int64{a, b + 256*int64(i)}
	}
	return out
}

// exchangeHash folds every Responses entry, the delivery counts, the leader
// loads (by ascending leader) and the metrics into one FNV-64a digest.
func exchangeHash(res *ExchangeResult, plan Plan, m congest.Metrics) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x int64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, resp := range res.Responses {
		word(int64(len(resp)))
		for _, t := range resp {
			word(int64(t.Origin))
			word(int64(t.Seq))
			word(t.A)
			word(t.B)
		}
	}
	word(int64(res.Delivered))
	word(int64(res.Undelivered))
	load := leaderLoad(res, plan)
	leaders := make([]int, 0, len(load))
	for l := range load {
		leaders = append(leaders, l)
	}
	slices.Sort(leaders)
	for _, l := range leaders {
		word(int64(l))
		word(int64(load[l]))
	}
	word(int64(m.Rounds))
	word(m.Messages)
	word(m.Words)
	word(int64(m.MaxWordsPerMsg))
	return h.Sum64()
}

// TestExchangeGolden pins Exchange and ExchangeBatch byte for byte: the
// responses, delivery counts, leader loads and metrics of fixed-seed runs on
// a grid and a G(n,p) graph, both strategies, with and without message loss.
// The constants were captured from the visit-log router that predates the
// departure stacks, so they prove the reverse path retraces the same walks;
// the four walk cases were re-pinned once when vertex PRNGs became
// splitmix64 streams (the tree cases draw no randomness), and the four
// fault cases once when faultCoin began mixing the seed before the
// coordinates.
func TestExchangeGolden(t *testing.T) {
	grid := graph.Grid(8, 8)
	gnp := graph.ErdosRenyiStream(120, 5.0/120, 21, 0)
	gridPart := func(v int) int { return (v/8)/4*2 + (v%8)/4 } // four 4x4 quadrants
	gnpPart := func(v int) int { return v % 3 }
	cases := []struct {
		name  string
		g     *graph.Graph
		plan  Plan
		batch bool
		fault float64
		seed  int64
		want  uint64
	}{
		{"grid/walk", grid, componentPlan(grid, gridPart, 120, RandomWalk), false, 0, 3, 16495758835344237747},
		{"grid/walk/faults", grid, componentPlan(grid, gridPart, 120, RandomWalk), false, 0.2, 3, 6930679302338468810},
		{"grid/tree", grid, componentPlan(grid, gridPart, 40, TreeParent), false, 0, 4, 15979261807726171190},
		{"grid/tree/faults", grid, componentPlan(grid, gridPart, 40, TreeParent), false, 0.2, 4, 9502953506053697466},
		{"gnp/walk", gnp, componentPlan(gnp, gnpPart, 200, RandomWalk), true, 0, 5, 459150832193584193},
		{"gnp/walk/faults", gnp, componentPlan(gnp, gnpPart, 200, RandomWalk), true, 0.2, 5, 3116613912786109109},
		{"gnp/tree", gnp, componentPlan(gnp, gnpPart, 60, TreeParent), true, 0, 6, 7517382903091570142},
		{"gnp/tree/faults", gnp, componentPlan(gnp, gnpPart, 60, TreeParent), true, 0.2, 6, 14826267781513655145},
	}
	for _, tc := range cases {
		cfg := congest.Config{Seed: tc.seed, FaultRate: tc.fault}
		tokens := tokensPer(tc.g.N(), 3)
		var (
			res *ExchangeResult
			m   congest.Metrics
			err error
		)
		if tc.batch {
			res, m, err = ExchangeBatch(tc.g, cfg, tc.plan, tokens, respondIndexed)
		} else {
			res, m, err = Exchange(tc.g, cfg, tc.plan, tokens, respondMix)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := exchangeHash(res, tc.plan, m); got != tc.want {
			t.Errorf("%s: hash %d, want %d (delivered %d, undelivered %d, %+v)",
				tc.name, got, tc.want, res.Delivered, res.Undelivered, m)
		}
	}
}

// TestExchangeRevisitsRetrace runs long lazy walks on a cycle and a path, where
// tokens pass through the same vertices many times before reaching the
// leader, and checks that every response comes back to its own origin with
// the responder's answer for that exact token.
func TestExchangeRevisitsRetrace(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"cycle16", graph.Cycle(16), 9035762937229326621},
		{"path12", graph.Path(12), 6513798996637025897},
	}
	const k = 4
	for _, tc := range cases {
		n := tc.g.N()
		plan := wholeGraphPlan(tc.g, 0, 3000, RandomWalk)
		tokens := tokensPer(n, k)
		res, m, err := Exchange(tc.g, congest.Config{Seed: 13}, plan, tokens, respondMix)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Undelivered != 0 {
			t.Fatalf("%s: %d tokens undelivered", tc.name, res.Undelivered)
		}
		for v := 0; v < n; v++ {
			if len(res.Responses[v]) != k {
				t.Fatalf("%s: vertex %d got %d responses, want %d",
					tc.name, v, len(res.Responses[v]), k)
			}
			for j, r := range res.Responses[v] {
				wantA, wantB := respondMix(0, tokens[v][j])
				if r.Origin != v || r.Seq != j || r.A != wantA || r.B != wantB {
					t.Errorf("%s: vertex %d token %d came back as %+v, want A=%d B=%d",
						tc.name, v, j, r, wantA, wantB)
				}
			}
		}
		// Every hop is one forward and one reverse message; the setup
		// broadcast sends one per edge direction. Over twice as many hops
		// as the tokens' summed distances to the leader means the walks
		// revisited vertices, which is the case this test is for.
		hops := (m.Messages - int64(2*tc.g.M())) / 2
		dists, _ := tc.g.BFS(0)
		dist := int64(0)
		for _, d := range dists {
			dist += int64(k * d)
		}
		if hops <= 2*dist {
			t.Errorf("%s: %d hops for summed distance %d; walks too direct to exercise revisits",
				tc.name, hops, dist)
		}
		if got := exchangeHash(res, plan, m); got != tc.want {
			t.Errorf("%s: hash %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestConcurrentExchanges runs exchanges of different sizes on several
// goroutines at once, each drawing its departure log from the shared pool:
// every one must hash exactly as it does alone. Run it with -race.
func TestConcurrentExchanges(t *testing.T) {
	grid := graph.Grid(8, 8)
	gnp := graph.ErdosRenyiStream(120, 5.0/120, 21, 0)
	run := func(i int) uint64 {
		g, plan := grid, componentPlan(grid, func(v int) int { return (v/8)/4*2 + (v%8)/4 }, 120, RandomWalk)
		if i%2 == 1 {
			g, plan = gnp, componentPlan(gnp, func(v int) int { return v % 3 }, 200, RandomWalk)
		}
		res, m, err := Exchange(g, congest.Config{Seed: int64(i)}, plan, tokensPer(g.N(), 1+i%3), respondMix)
		if err != nil {
			t.Error(err)
			return 0
		}
		return exchangeHash(res, plan, m)
	}
	const runs = 6
	want := make([]uint64, runs)
	for i := range want {
		want[i] = run(i)
	}
	got := make([]uint64, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(i)
		}(i)
	}
	wg.Wait()
	if !slices.Equal(got, want) {
		t.Errorf("concurrent exchanges hash %v, alone %v", got, want)
	}
}

// A finished exchange's departure log outlives garbage collections (a
// sync.Pool would drop it after two) and is what the next exchange starts
// from, and the store keeps no more logs than exchanges have run at once.
func TestDepartureLogsAreKept(t *testing.T) {
	g := graph.Grid(8, 8)
	plan := componentPlan(g, func(v int) int { return 0 }, 200, RandomWalk)
	run := func() {
		if _, _, err := Exchange(g, congest.Config{Seed: 3}, plan, tokensPer(g.N(), 2), respondMix); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runtime.GC()
	runtime.GC()
	log := takeDepartureLog()
	grown := cap(*log)
	keepDepartureLog(log)
	if grown == 0 {
		t.Fatal("no kept log after an exchange and two garbage collections")
	}
	run()
	if log := takeDepartureLog(); cap(*log) != grown {
		t.Errorf("next exchange left a log of capacity %d, want the kept %d", cap(*log), grown)
	} else {
		keepDepartureLog(log)
	}
	kept := func() int {
		departureLogs.mu.Lock()
		defer departureLogs.mu.Unlock()
		return len(departureLogs.free)
	}
	// Three exchanges in flight at once hold three logs.
	before := kept()
	held := []*[]departure{takeDepartureLog(), takeDepartureLog(), takeDepartureLog()}
	for _, log := range held {
		keepDepartureLog(log)
	}
	if got, want := kept(), max(before, 3); got != want {
		t.Errorf("store keeps %d logs after 3 exchanges at once, %d before; want %d", got, before, want)
	}
	// Exchanges that may or may not overlap keep no more.
	before = kept()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	if got := kept(); got < before || got > max(before, 4) {
		t.Errorf("store keeps %d logs after 4 concurrent exchanges, %d before", got, before)
	}
}
