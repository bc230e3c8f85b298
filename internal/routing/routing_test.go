package routing

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// wholeGraphPlan builds a single-cluster plan with the given leader.
func wholeGraphPlan(g *graph.Graph, leader int, budget int, strat Strategy) Plan {
	lead := make([]int, g.N())
	for v := range lead {
		lead[v] = leader
	}
	return Plan{
		Cluster:       primitives.Uniform(g.N()),
		Leader:        lead,
		ForwardRounds: budget,
		Strategy:      strat,
	}
}

func oneTokenEach(g *graph.Graph) [][]Token {
	tokens := make([][]Token, g.N())
	for v := range tokens {
		tokens[v] = []Token{{A: int64(v * 10), B: int64(v)}}
	}
	return tokens
}

// leaderLoad counts the tokens each leader absorbed: the responses origin v
// received, charged to v's leader.
func leaderLoad(res *ExchangeResult, plan Plan) map[int]int {
	load := make(map[int]int)
	for v, resp := range res.Responses {
		if resp != nil {
			load[plan.Leader[v]] += len(resp)
		}
	}
	return load
}

// GatherOnly routes tokens to leaders without responses and returns what
// each leader absorbed. It runs the same forward phase as Exchange; the
// reverse phase degenerates to echoing delivery confirmations, which is how
// origins learn their token arrived (the §2.3 delivery check).
func GatherOnly(g *graph.Graph, cfg congest.Config, plan Plan, tokens [][]Token) (map[int][]Token, *ExchangeResult, congest.Metrics, error) {
	inbox := make(map[int][]Token)
	res, metrics, err := Exchange(g, cfg, plan, tokens, func(leader int, t Token) (int64, int64) {
		inbox[leader] = append(inbox[leader], t)
		return t.A, t.B
	})
	if err != nil {
		return nil, nil, metrics, err
	}
	return inbox, res, metrics, nil
}

func TestWalkExchangeDeliversAll(t *testing.T) {
	g := graph.Complete(8)
	plan := wholeGraphPlan(g, 3, WalkBudget(0.5, g.N()), RandomWalk)
	seen := make(map[int][2]int64)
	res, metrics, err := Exchange(g, congest.Config{Seed: 5}, plan, oneTokenEach(g),
		func(leader int, tok Token) (int64, int64) {
			seen[tok.Origin] = [2]int64{tok.A, tok.B}
			return tok.A + 1, tok.B + 1
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Undelivered != 0 {
		t.Fatalf("undelivered = %d, want 0", res.Undelivered)
	}
	if res.Delivered != g.N() {
		t.Fatalf("delivered = %d, want %d", res.Delivered, g.N())
	}
	for v := 0; v < g.N(); v++ {
		got, ok := seen[v]
		if !ok {
			t.Fatalf("leader never saw vertex %d's token", v)
		}
		if got[0] != int64(v*10) || got[1] != int64(v) {
			t.Errorf("payload corrupted for %d: %v", v, got)
		}
		resp := res.Responses[v]
		if len(resp) != 1 {
			t.Fatalf("vertex %d got %d responses, want 1", v, len(resp))
		}
		if resp[0].A != int64(v*10+1) || resp[0].B != int64(v+1) {
			t.Errorf("vertex %d response = %+v", v, resp[0])
		}
	}
	if metrics.Rounds != 2*plan.ForwardRounds+2+1 {
		t.Errorf("rounds = %d, want %d", metrics.Rounds, 2*plan.ForwardRounds+3)
	}
}

func TestWalkExchangeOnExpanderCluster(t *testing.T) {
	// A grid has moderate conductance; the budget formula must suffice.
	g := graph.Grid(6, 6)
	plan := wholeGraphPlan(g, 0, WalkBudget(0.15, g.N()), RandomWalk)
	res, _, err := Exchange(g, congest.Config{Seed: 7}, plan, oneTokenEach(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undelivered != 0 {
		t.Errorf("undelivered = %d on 6x6 grid with generous budget", res.Undelivered)
	}
	// nil respond echoes payloads.
	for v := 0; v < g.N(); v++ {
		if len(res.Responses[v]) != 1 || res.Responses[v][0].A != int64(v*10) {
			t.Errorf("echo response wrong for %d: %v", v, res.Responses[v])
		}
	}
}

func TestWalkExchangeShortBudgetReportsUndelivered(t *testing.T) {
	g := graph.Path(30)
	plan := wholeGraphPlan(g, 0, 4, RandomWalk) // far too few rounds
	res, _, err := Exchange(g, congest.Config{Seed: 3}, plan, oneTokenEach(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undelivered == 0 {
		t.Error("a 4-round budget cannot deliver across a 30-path")
	}
	// Undelivered origins got no response.
	nothing := 0
	for v := 0; v < g.N(); v++ {
		if len(res.Responses[v]) == 0 {
			nothing++
		}
	}
	if nothing != res.Undelivered {
		t.Errorf("responseless origins %d != undelivered %d", nothing, res.Undelivered)
	}
}

func TestTreeExchangeDeterministicDelivery(t *testing.T) {
	g := graph.BalancedBinaryTree(15)
	parent := make([]int, g.N())
	for v := 1; v < g.N(); v++ {
		parent[v] = (v - 1) / 2
	}
	parent[0] = 0
	plan := wholeGraphPlan(g, 0, 64, TreeParent)
	plan.Parent = parent
	res, _, err := Exchange(g, congest.Config{Seed: 1}, plan, oneTokenEach(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undelivered != 0 {
		t.Fatalf("tree routing undelivered = %d", res.Undelivered)
	}
	if load := leaderLoad(res, plan)[0]; load != g.N() {
		t.Errorf("leader load = %d, want %d", load, g.N())
	}
}

func TestExchangeRespectsClusters(t *testing.T) {
	// Two clusters on a path; each token must reach its own leader only.
	g := graph.Path(8)
	cluster := primitives.ClusterAssignment{0, 0, 0, 0, 1, 1, 1, 1}
	leader := []int{0, 0, 0, 0, 7, 7, 7, 7}
	plan := Plan{
		Cluster:       cluster,
		Leader:        leader,
		ForwardRounds: 200,
		Strategy:      RandomWalk,
	}
	inbox, res, _, err := GatherOnly(g, congest.Config{Seed: 9}, plan, oneTokenEach(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Undelivered != 0 {
		t.Fatalf("undelivered = %d", res.Undelivered)
	}
	for leaderID, toks := range inbox {
		for _, tok := range toks {
			if cluster[tok.Origin] != cluster[leaderID] {
				t.Errorf("token from %d leaked to leader %d", tok.Origin, leaderID)
			}
		}
	}
	if len(inbox[0]) != 4 || len(inbox[7]) != 4 {
		t.Errorf("leader inboxes: %d and %d, want 4 and 4", len(inbox[0]), len(inbox[7]))
	}
}

func TestExchangeMultipleTokensPerVertex(t *testing.T) {
	g := graph.Complete(6)
	tokens := make([][]Token, g.N())
	for v := range tokens {
		for j := 0; j < 5; j++ {
			tokens[v] = append(tokens[v], Token{A: int64(v), B: int64(j)})
		}
	}
	plan := wholeGraphPlan(g, 0, 400, RandomWalk)
	res, _, err := Exchange(g, congest.Config{Seed: 11}, plan, tokens,
		func(leader int, tok Token) (int64, int64) { return tok.B, tok.A })
	if err != nil {
		t.Fatal(err)
	}
	if res.Undelivered != 0 {
		t.Fatalf("undelivered = %d", res.Undelivered)
	}
	for v := 0; v < g.N(); v++ {
		if len(res.Responses[v]) != 5 {
			t.Fatalf("vertex %d: %d responses, want 5", v, len(res.Responses[v]))
		}
		for j, resp := range res.Responses[v] {
			if resp.Seq != j {
				t.Errorf("vertex %d responses out of order: %v", v, res.Responses[v])
				break
			}
			if resp.A != int64(j) || resp.B != int64(v) {
				t.Errorf("vertex %d token %d: swapped payload wrong: %+v", v, j, resp)
			}
		}
	}
}

func TestExchangeValidation(t *testing.T) {
	g := graph.Path(4)
	base := wholeGraphPlan(g, 0, 10, RandomWalk)

	short := base
	short.Leader = []int{0}
	if _, _, err := Exchange(g, congest.Config{}, short, make([][]Token, 4), nil); err == nil {
		t.Error("short leader slice accepted")
	}

	tree := base
	tree.Strategy = TreeParent
	if _, _, err := Exchange(g, congest.Config{}, tree, make([][]Token, 4), nil); err == nil {
		t.Error("tree strategy without parents accepted")
	}

	bad := base
	bad.ForwardRounds = 0
	if _, _, err := Exchange(g, congest.Config{}, bad, make([][]Token, 4), nil); err == nil {
		t.Error("zero budget accepted")
	}

	many := base
	tokens := make([][]Token, 4)
	tokens[0] = make([]Token, 1000)
	if _, _, err := Exchange(g, congest.Config{}, many, tokens, nil); err == nil {
		t.Error("token overflow accepted")
	}
}

func TestWalkBudgetScaling(t *testing.T) {
	if WalkBudget(0.1, 100) <= WalkBudget(0.5, 100) {
		t.Error("budget should grow as phi shrinks")
	}
	if WalkBudget(0.2, 10000) <= WalkBudget(0.2, 10) {
		t.Error("budget should grow with n")
	}
	if WalkBudget(0, 10) < 16 {
		t.Error("degenerate phi should still give a positive budget")
	}
}

func TestExchangeDeterminism(t *testing.T) {
	g := graph.Grid(4, 4)
	plan := wholeGraphPlan(g, 5, 300, RandomWalk)
	run := func() *ExchangeResult {
		res, _, err := Exchange(g, congest.Config{Seed: 77}, plan, oneTokenEach(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Undelivered != b.Undelivered {
		t.Fatal("nondeterministic delivery")
	}
	for v := range a.Responses {
		if len(a.Responses[v]) != len(b.Responses[v]) {
			t.Fatalf("nondeterministic responses at %d", v)
		}
	}
}

func TestLeaderOwnTokensDeliveredLocally(t *testing.T) {
	g := graph.Star(4)
	plan := wholeGraphPlan(g, 0, 100, RandomWalk)
	tokens := make([][]Token, g.N())
	tokens[0] = []Token{{A: 42, B: 43}} // only the leader has a token
	res, _, err := Exchange(g, congest.Config{Seed: 2}, plan, tokens,
		func(leader int, tok Token) (int64, int64) { return tok.A * 2, tok.B * 2 })
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Undelivered != 0 {
		t.Fatalf("delivered=%d undelivered=%d", res.Delivered, res.Undelivered)
	}
	if len(res.Responses[0]) != 1 || res.Responses[0][0].A != 84 {
		t.Errorf("leader self-response = %v", res.Responses[0])
	}
}

// An exchange always takes 2T+3 rounds, so a budget whose schedule cannot fit
// the simulator's round limit fails before the first round instead of
// stepping until the limit. A schedule that fits exactly still runs.
func TestExchangeFailsFastOverRoundLimit(t *testing.T) {
	g := graph.Grid(4, 4)
	plan := wholeGraphPlan(g, 0, 100, RandomWalk)
	called := false
	respond := func(leader int, tok Token) (int64, int64) {
		called = true
		return tok.A, tok.B
	}
	_, m, err := Exchange(g, congest.Config{Seed: 1, MaxRounds: 202}, plan, oneTokenEach(g), respond)
	if !errors.Is(err, congest.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	for _, want := range []string{"203", "202"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if m.Rounds != 0 || m.Messages != 0 || called {
		t.Errorf("stepped before failing: %+v, responder called %v", m, called)
	}
	_, m, err = Exchange(g, congest.Config{Seed: 1, MaxRounds: 203}, plan, oneTokenEach(g), respond)
	if err != nil {
		t.Fatalf("exact fit refused: %v", err)
	}
	if m.Rounds != 203 || !called {
		t.Errorf("exact fit: rounds %d, responder called %v", m.Rounds, called)
	}
}

// A relay's chain in the departure log pops the one departure each reverse
// arrival undoes, whether or not it is the chain's top, discards departures
// above it (their tokens never came back), leaves other relays' departures
// alone, and panics on a reverse arrival that matches no departure.
func TestDepartureStackRetrace(t *testing.T) {
	const total = 20 // T = 9
	// Relay A's departures interleaved with relay B's, in send order.
	log := []departure{
		{round: 3, port: 0, from: arrival{port: 5, round: 2}, prev: -1}, // A
		{round: 3, port: 2, from: arrival{port: 1, round: 1}, prev: -1}, // B
		{round: 3, port: 1, from: arrival{port: -1}, prev: 0},           // A
		{round: 5, port: 0, from: arrival{port: 6, round: 4}, prev: 2},  // A
		{round: 6, port: 1, from: arrival{port: 0, round: 2}, prev: 1},  // B
		{round: 7, port: 1, from: arrival{port: 7, round: 6}, prev: 3},  // A
		{round: 7, port: 0, from: arrival{port: 8, round: 5}, prev: 5},  // A
	}
	relayB := []departure{log[1], log[4]}
	h := &routeHandler{total: total, log: &log, top: 6}
	// A departure at round d returns at phase round total-d on its port.
	h.handleReverseArrival(Token{Seq: 1}, 1, total-7) // below the top: (7,0) takes its slot
	h.handleReverseArrival(Token{Seq: 2}, 0, total-7)
	h.handleReverseArrival(Token{Seq: 3}, 1, total-3) // drops (5,0)
	h.handleReverseArrival(Token{Seq: 4}, 0, total-3)
	want := []pendingSend{
		{round: total - 6, port: 7, tok: Token{Seq: 1}},
		{round: total - 5, port: 8, tok: Token{Seq: 2}},
		{round: total - 2, port: 5, tok: Token{Seq: 4}},
	}
	if !slices.Equal(h.reverse, want) {
		t.Errorf("reverse sends %+v, want %+v", h.reverse, want)
	}
	if len(h.responses) != 1 || h.responses[0].Seq != 3 {
		t.Errorf("responses %+v, want the token that started here", h.responses)
	}
	if h.top != -1 {
		t.Errorf("chain top %d after every departure returned, want -1", h.top)
	}
	if got := []departure{log[1], log[4]}; !slices.Equal(got, relayB) {
		t.Errorf("another relay's departures changed: %+v, want %+v", got, relayB)
	}

	log = []departure{{round: 7, port: 0, prev: -1}}
	h.top = 0
	defer func() {
		if recover() == nil {
			t.Error("a reverse arrival on a port no departure used did not panic")
		}
	}()
	h.handleReverseArrival(Token{}, 1, total-7)
}

// lazyStep draws the same coins and ports, from the same stream position, as
// the Intn(2) and Intn(k) calls it replaces.
func TestLazyStepMatchesIntn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for k := 1; k <= 40; k++ {
			got := rand.New(rand.NewSource(seed))
			want := rand.New(rand.NewSource(seed))
			for step := 0; step < 200; step++ {
				moved, i := lazyStep(got, k)
				wantMoved := want.Intn(2) != 0
				wantI := 0
				if wantMoved {
					wantI = want.Intn(k)
				}
				if moved != wantMoved || i != wantI {
					t.Fatalf("seed %d, k %d, step %d: lazyStep (%t, %d), Intn (%t, %d)",
						seed, k, step, moved, i, wantMoved, wantI)
				}
			}
		}
	}
}
