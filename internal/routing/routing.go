package routing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// Token is one O(log n)-bit routable unit: an origin, a per-origin sequence
// number, and two payload words.
type Token struct {
	Origin int
	Seq    int
	A, B   int64
}

// Strategy selects the forwarding rule.
type Strategy int

const (
	// RandomWalk is Lemma 2.4's lazy-random-walk routing.
	RandomWalk Strategy = iota + 1
	// TreeParent deterministically climbs a BFS tree toward the leader
	// (Lemma 2.5 stand-in).
	TreeParent
)

// Plan describes a routing instance.
type Plan struct {
	// Cluster assigns vertices to clusters; tokens never leave their
	// cluster.
	Cluster primitives.ClusterAssignment
	// Leader maps each vertex to its cluster leader's vertex ID.
	Leader []int
	// Parent maps each vertex to its BFS parent toward the leader
	// (required for TreeParent; ignored for RandomWalk).
	Parent []int
	// ForwardRounds is the forward-phase budget T. The full exchange takes
	// 2T+3 simulator rounds: setup plus 2T+2 phase rounds.
	ForwardRounds int
	// Strategy selects the forwarding rule.
	Strategy Strategy
}

// WalkBudget returns a forward-round budget for Lemma 2.4 routing on a
// cluster with conductance at least phi inside an n-vertex network:
// Θ(φ⁻² · log² n) walk steps (the lemma's O(φ⁻² log n) segments of length
// τ_mix = O(φ⁻² log n) are capped here by the empirical constant 6, with the
// congestion slack folded in).
func WalkBudget(phi float64, n int) int {
	if phi <= 0 {
		phi = 1e-3
	}
	ln := math.Log(float64(n) + 2)
	b := int(math.Ceil(6 * ln * ln / (phi * phi)))
	if b < 16 {
		b = 16
	}
	return b
}

// ExchangeResult reports a completed routing exchange.
type ExchangeResult struct {
	// Responses[v] lists the response tokens origin v received, in seq
	// order. A token with no response was undelivered.
	Responses [][]Token
	// Delivered counts tokens absorbed by leaders.
	Delivered int
	// Undelivered counts tokens that missed the forward budget.
	Undelivered int
}

const (
	kindForward = int64(1)
	kindReverse = int64(2)
)

// arrival is where a token entered a vertex in the forward phase: the port
// and the phase round. A vertex's own tokens carry port -1.
type arrival struct {
	port, round int32
}

// held is a token queued at a vertex, with the arrival that brought it.
type held struct {
	tok  Token
	from arrival
}

// departure is one forward send: the phase round and port the token left on,
// the arrival that brought it to the sending relay, and prev, the log index
// of that relay's previous departure (-1 for none). An exchange appends every
// departure to one log in send order, which is round order; following prev
// from a relay's latest departure visits its departures in descending round
// order, and the reverse phase pops them in that order (see doc.go).
type departure struct {
	round, port int32
	from        arrival
	prev        int32
}

// pendingSend is a reverse send queued at a vertex, due at a phase round.
type pendingSend struct {
	round, port int32
	tok         Token
}

// reverseHeap is a binary min-heap of a vertex's pending reverse sends on
// their due round, so flushReverse pops only what is due and maybeSleep
// reads the next due round off the head. Sends due in the same round leave in
// heap order, not queue order. They answer forward arrivals of one round,
// which came in on distinct ports, so they go to distinct neighbours and
// their order changes no inbox, Metrics value or PRNG draw. Every handler's
// heap is carved out of one slab before the reverse phase (carveReverseHeaps).
type reverseHeap []pendingSend

func (h *reverseHeap) push(ps pendingSend) {
	*h = append(*h, ps)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].round <= ps.round {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ps
}

func (h *reverseHeap) pop() pendingSend {
	s := *h
	top := s[0]
	last := len(s) - 1
	e := s[last]
	*h = s[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		small := l
		if r := l + 1; r < last && s[r].round < s[l].round {
			small = r
		}
		if e.round <= s[small].round {
			break
		}
		s[i] = s[small]
		i = small
	}
	if last > 0 {
		s[i] = e
	}
	return top
}

type routeHandler struct {
	plan         *Plan
	isLeader     bool
	samePorts    []int32      // same-cluster ports
	parentPort   int          // TreeParent: the port toward the BFS parent, -1 for none
	queue        []held       // tokens held in the forward phase: queue[head:]
	head         int          // TreeParent: queue[:head] have left, in arrival order
	portStamp    []int32      // portStamp[p] == pr marks port p used this round
	log          *[]departure // the exchange's departure log, shared by all handlers
	top          int32        // log index of this relay's latest live departure, -1 for none
	absorbed     []Token      // leader only
	arrivals     []arrival    // leader only, parallel to absorbed
	reverse      reverseHeap
	peak         int32 // the most tokens held at once in the forward phase
	responses    []Token
	respond      func(leader int, t Token) (int64, int64)
	respondBatch func(leader int, inbox []Token) [][2]int64
	total        int // 2T+2
}

func (h *routeHandler) Init(v *congest.Vertex) {
	v.BroadcastWords(int64(h.plan.Cluster[v.ID()]))
}

func (h *routeHandler) Round(v *congest.Vertex, round int, recv []congest.Incoming) {
	T := h.plan.ForwardRounds
	if round == 1 {
		for _, in := range recv {
			if len(in.Msg) == 1 && in.Msg[0] == int64(h.plan.Cluster[v.ID()]) {
				h.samePorts = append(h.samePorts, int32(in.Port))
			}
		}
		h.maybeSleep(v, 0, T)
		return
	}
	pr := round - 1 // phase round: 1..T forward, T+1 respond, up to 2T+2
	// Absorb incoming.
	for i := range recv {
		in := &recv[i]
		msg := in.Msg
		if len(msg) != 5 {
			continue
		}
		tok := Token{Origin: int(msg[1]), Seq: int(msg[2]), A: msg[3], B: msg[4]}
		switch msg[0] {
		case kindForward:
			from := arrival{port: int32(in.Port), round: int32(pr)}
			if h.isLeader {
				h.absorbed = append(h.absorbed, tok)
				h.arrivals = append(h.arrivals, from)
			} else {
				h.queue = append(h.queue, held{tok: tok, from: from})
			}
		case kindReverse:
			h.handleReverseArrival(tok, in.Port, pr)
		}
	}
	h.peak = max(h.peak, int32(h.holding()))
	switch {
	case pr < T:
		h.forwardStep(v, pr)
	case pr == T:
		// Last forward round: no sends (they would arrive after the phase).
	case pr == T+1:
		h.leaderRespond(v)
	}
	// Emit due reverse sends.
	h.flushReverse(v, pr)
	if pr >= h.total {
		v.SetOutput(h.responses)
		v.Halt()
		return
	}
	h.maybeSleep(v, pr, T)
}

// maybeSleep puts the vertex to sleep until its next scheduled duty in the
// 2T+2 exchange, called at the end of every Round with the current phase
// round pr (sim round pr+1). The schedule is fully known locally: a vertex
// holding tokens keeps forwarding while forward rounds remain (and must stay
// awake — the lazy walk draws randomness every such round); a leader has the
// respond round T+1; queued reverse sends are due at exact phase rounds; and
// everyone has the final output round pr==total. A token arriving on any
// port wakes the vertex early, exactly when the dense scheduler would have
// had it act on the arrival — all skipped rounds are provable no-ops (empty
// queue means forwardStep returns before any PRNG draw, so streams are
// bit-identical).
func (h *routeHandler) maybeSleep(v *congest.Vertex, pr, T int) {
	if h.holding() > 0 && pr+1 < T && len(h.samePorts) > 0 {
		return // forwarding continues next round
	}
	next := h.total // the mandatory output round
	if h.isLeader && pr < T+1 {
		next = T + 1 // the respond round
	}
	if len(h.reverse) > 0 && int(h.reverse[0].round) < next {
		next = int(h.reverse[0].round)
	}
	v.SleepUntil(next + 1)
}

// holding returns the number of tokens held.
func (h *routeHandler) holding() int { return len(h.queue) - h.head }

func (h *routeHandler) forwardStep(v *congest.Vertex, pr int) {
	if h.holding() == 0 || len(h.samePorts) == 0 {
		return
	}
	switch h.plan.Strategy {
	case RandomWalk:
		h.walk(v, pr)
	case TreeParent:
		h.climb(v, pr)
	default:
		panic(fmt.Sprintf("routing: unknown strategy %d", h.plan.Strategy))
	}
}

// walk takes one lazy-walk step for every held token, in queue order.
func (h *routeHandler) walk(v *congest.Vertex, pr int) {
	r := v.Rand()
	// Compact waiting tokens in place: the write index never overtakes the
	// read index, so the queue backing array is reused round after round.
	k := 0
	for j := range h.queue {
		if moved, i := lazyStep(r, len(h.samePorts)); moved {
			port := int(h.samePorts[i])
			if h.portStamp[port] != int32(pr) {
				h.portStamp[port] = int32(pr)
				h.send(v, pr, port, &h.queue[j])
				continue
			}
			// Edge busy this round: wait (counts as a lazy step).
		}
		if k != j {
			h.queue[k] = h.queue[j]
		}
		k++
	}
	h.queue = h.queue[:k]
}

// climb sends the longest-held token up the tree. Every token leaves on
// the one parent port, which carries one token a round, so the tokens leave
// in arrival order and the head index makes a round O(1).
func (h *routeHandler) climb(v *congest.Vertex, pr int) {
	if h.parentPort < 0 {
		return
	}
	q := h.queue[h.head]
	h.head++
	if h.head == len(h.queue) {
		h.queue, h.head = h.queue[:0], 0
	}
	h.send(v, pr, h.parentPort, &q)
}

// send forwards q on port and logs the departure.
func (h *routeHandler) send(v *congest.Vertex, pr, port int, q *held) {
	tok := q.tok
	v.SendWords(port, kindForward, int64(tok.Origin), int64(tok.Seq), tok.A, tok.B)
	h.depart(departure{round: int32(pr), port: int32(port), from: q.from, prev: h.top})
}

// depart appends dep to the exchange's departure log as this relay's latest
// departure. A full log doubles: append's gentler growth for large slices
// would copy a log of millions of entries several times more.
func (h *routeHandler) depart(dep departure) {
	log := h.log
	if len(*log) == cap(*log) {
		grown := make([]departure, len(*log), 2*cap(*log)+1024)
		copy(grown, *log)
		*log = grown
	}
	*log = append(*log, dep)
	h.top = int32(len(*log) - 1)
}

// lazyStep draws one lazy-walk step over k ports from r: the token stays put
// with probability 1/2, and otherwise moves through port index i, uniform
// over [0, k). It draws exactly what r.Intn(2) and then r.Intn(k) would: for
// these arguments Intn is Int31n, and Int31n(2) is Int31()&1.
func lazyStep(r *rand.Rand, k int) (moved bool, i int) {
	if r.Int31()&1 == 0 {
		return false, 0
	}
	return true, int(r.Int31n(int32(k)))
}

func (h *routeHandler) leaderRespond(v *congest.Vertex) {
	if !h.isLeader {
		return
	}
	var batch [][2]int64
	if h.respondBatch != nil {
		batch = h.respondBatch(v.ID(), h.absorbed)
		if len(batch) != len(h.absorbed) {
			panic(fmt.Sprintf("routing: batch responder returned %d responses for %d tokens",
				len(batch), len(h.absorbed)))
		}
	}
	for i, tok := range h.absorbed {
		ra, rb := tok.A, tok.B
		switch {
		case batch != nil:
			ra, rb = batch[i][0], batch[i][1]
		case h.respond != nil:
			ra, rb = h.respond(v.ID(), tok)
		}
		h.sendBack(Token{Origin: tok.Origin, Seq: tok.Seq, A: ra, B: rb}, h.arrivals[i])
	}
}

// sendBack routes tok one hop back along the arrival that brought it here:
// an arrival at phase round a is answered at round 2T+2-a on the same port,
// which reaches the sender in the round mirroring its departure. A token
// that started here (port -1) has come home.
func (h *routeHandler) sendBack(tok Token, from arrival) {
	if from.port < 0 {
		h.responses = append(h.responses, tok)
		return
	}
	h.reverse.push(pendingSend{round: int32(h.total) - from.round, port: from.port, tok: tok})
}

// handleReverseArrival pops the departure a reverse token arriving on port at
// phase round pr undoes: the forward send at round 2T+2-pr on that port.
// Reverse arrivals come in decreasing departure round, so this relay's
// departures above that round belong to tokens that never came back and are
// discarded; at most one departure per port shares a round, so the match
// follows at most deg(v) links. The top departure then takes the matched
// one's place in the chain, keeping the chain in round order.
func (h *routeHandler) handleReverseArrival(tok Token, port, pr int) {
	d := int32(h.total - pr)
	log := *h.log
	top := h.top
	for top >= 0 && log[top].round > d {
		top = log[top].prev
	}
	i := top
	for i >= 0 && log[i].round == d && log[i].port != int32(port) {
		i = log[i].prev
	}
	if i < 0 || log[i].round != d {
		panic(fmt.Sprintf("routing: reverse token (%d,%d) on port %d at phase round %d matches no departure",
			tok.Origin, tok.Seq, port, pr))
	}
	from := log[i].from
	t := log[top]
	log[i].round, log[i].port, log[i].from = t.round, t.port, t.from
	h.top = t.prev
	h.sendBack(tok, from)
}

// flushReverse emits the reverse sends due at phase round pr. Every send is
// queued for the round that queues it or a later one (the same round when
// its token left this relay in the round it arrived, 44% of hops on er800),
// flushReverse runs after the arrivals are absorbed, and the vertex is
// awake at each due round (maybeSleep), so the head is never overdue.
func (h *routeHandler) flushReverse(v *congest.Vertex, pr int) {
	for len(h.reverse) > 0 && int(h.reverse[0].round) <= pr {
		ps := h.reverse.pop()
		v.SendWords(int(ps.port), kindReverse, int64(ps.tok.Origin), int64(ps.tok.Seq), ps.tok.A, ps.tok.B)
	}
}

// carveReverseHeaps gives every handler its reverse-send heap, carved out of
// one slab, between the last forward round and the first reverse one. The
// sends a relay has pending at reverse round 2T+2-F answer the tokens it
// held at forward round F (arrived by F, departed at F or later), so the
// most tokens its queue held at once bounds its heap; a leader answers at
// most what it absorbed. A heap that outgrew its share would only grow into
// a fresh array.
func carveReverseHeaps(handlers []routeHandler) {
	capOf := func(h *routeHandler) int {
		if h.isLeader {
			return len(h.absorbed)
		}
		return int(h.peak)
	}
	total := 0
	for i := range handlers {
		total += capOf(&handlers[i])
	}
	slab := make([]pendingSend, total)
	for i := range handlers {
		h := &handlers[i]
		k := capOf(h)
		h.reverse, slab = slab[:0:k], slab[k:]
	}
}

// Exchange routes each origin's tokens to its cluster leader and, if respond
// is non-nil, routes the leader's per-token responses back along the
// reversed walks. tokens[v] lists vertex v's outgoing tokens (Origin/Seq are
// set by Exchange).
func Exchange(g *graph.Graph, cfg congest.Config, plan Plan, tokens [][]Token, respond func(leader int, t Token) (int64, int64)) (*ExchangeResult, congest.Metrics, error) {
	return exchange(g, cfg, plan, tokens, respond, nil)
}

// ExchangeBatch is Exchange with a batch responder: after a leader has
// absorbed all delivered forward tokens, respondBatch is called once with
// the complete inbox and must return one (A, B) response per inbox token, in
// order. This models the leader performing an arbitrary local computation on
// everything it gathered before answering — the heart of the paper's
// framework (Theorem 2.6's routing step).
func ExchangeBatch(g *graph.Graph, cfg congest.Config, plan Plan, tokens [][]Token, respondBatch func(leader int, inbox []Token) [][2]int64) (*ExchangeResult, congest.Metrics, error) {
	return exchange(g, cfg, plan, tokens, nil, respondBatch)
}

// departureLogs keeps the departure logs of finished exchanges for the next
// ones. A cold query's exchange logs millions of departures; a kept log
// starts at the capacity an earlier exchange grew it to, so a stream of
// exchanges stops regrowing one. Unlike a sync.Pool, which the GC empties,
// the store keeps its logs for the life of the process, and it never holds
// more of them than the most exchanges that have run at once.
var departureLogs struct {
	mu   sync.Mutex
	free []*[]departure
}

// takeDepartureLog returns an empty log, a kept one if there is one.
func takeDepartureLog() *[]departure {
	departureLogs.mu.Lock()
	defer departureLogs.mu.Unlock()
	k := len(departureLogs.free)
	if k == 0 {
		return new([]departure)
	}
	log := departureLogs.free[k-1]
	departureLogs.free = departureLogs.free[:k-1]
	return log
}

// keepDepartureLog empties log and keeps it for a later exchange.
func keepDepartureLog(log *[]departure) {
	*log = (*log)[:0]
	departureLogs.mu.Lock()
	departureLogs.free = append(departureLogs.free, log)
	departureLogs.mu.Unlock()
}

func exchange(g *graph.Graph, cfg congest.Config, plan Plan, tokens [][]Token, respond func(leader int, t Token) (int64, int64), respondBatch func(leader int, inbox []Token) [][2]int64) (*ExchangeResult, congest.Metrics, error) {
	n := g.N()
	if err := plan.Cluster.Validate(g); err != nil {
		return nil, congest.Metrics{}, err
	}
	if len(plan.Leader) != n {
		return nil, congest.Metrics{}, fmt.Errorf("routing: leader slice has %d entries, want %d", len(plan.Leader), n)
	}
	if plan.Strategy == TreeParent && len(plan.Parent) != n {
		return nil, congest.Metrics{}, fmt.Errorf("routing: tree strategy needs parents")
	}
	if plan.ForwardRounds < 1 {
		return nil, congest.Metrics{}, fmt.Errorf("routing: forward budget must be >= 1, got %d", plan.ForwardRounds)
	}
	if plan.Strategy == 0 {
		plan.Strategy = RandomWalk
	}
	const maxSeq = 900 // keeps the seq word well inside the CONGEST cap
	totalTokens := 0
	for v := range tokens {
		if len(tokens[v]) > maxSeq {
			return nil, congest.Metrics{}, fmt.Errorf("routing: vertex %d has %d tokens, cap is %d", v, len(tokens[v]), maxSeq)
		}
		totalTokens += len(tokens[v])
	}
	total := 2*plan.ForwardRounds + 2
	sim := congest.NewSimulator(g, cfg)
	// The schedule is fixed: setup plus 2T+2 phase rounds. Refuse up front
	// rather than step until the simulator's round limit.
	if need, limit := total+1, sim.Config().MaxRounds; need > limit {
		return nil, congest.Metrics{}, fmt.Errorf("routing: exchange needs %d rounds for forward budget %d, over the %d-round limit: %w",
			need, plan.ForwardRounds, limit, congest.ErrMaxRounds)
	}
	// All per-walk state is sized here, at setup. The handlers are one slab,
	// and each vertex's port stamps and same-cluster ports are carved out of
	// two flat arrays at its CSR offset; the token queue is seeded with the
	// vertex's own tokens; every forward send appends to one departure log.
	// The steady per-round path then only appends within amortized-grown
	// buffers.
	off, _ := g.AdjacencyCSR()
	handlers := make([]routeHandler, n)
	stamps := make([]int32, off[n])
	same := make([]int32, off[n])
	log := takeDepartureLog()
	defer keepDepartureLog(log)
	e := sim.Start(func(v *congest.Vertex) congest.Handler {
		lo, hi := off[v.ID()], off[v.ID()+1]
		h := &handlers[v.ID()]
		*h = routeHandler{
			plan:         &plan,
			isLeader:     plan.Leader[v.ID()] == v.ID(),
			samePorts:    same[lo:lo:hi],
			portStamp:    stamps[lo:hi:hi],
			log:          log,
			parentPort:   -1,
			top:          -1,
			respond:      respond,
			respondBatch: respondBatch,
			total:        total,
		}
		if plan.Strategy == TreeParent {
			h.parentPort = v.PortOf(plan.Parent[v.ID()])
		}
		own := tokens[v.ID()]
		home := arrival{port: -1}
		if h.isLeader {
			h.absorbed = make([]Token, 0, len(own))
			h.arrivals = make([]arrival, 0, len(own))
			for i, tok := range own {
				tok.Origin = v.ID()
				tok.Seq = i
				// Leader's own tokens are absorbed locally before round 1.
				h.absorbed = append(h.absorbed, tok)
				h.arrivals = append(h.arrivals, home)
			}
		} else {
			h.queue = make([]held, 0, len(own)+2)
			for i, tok := range own {
				tok.Origin = v.ID()
				tok.Seq = i
				h.queue = append(h.queue, held{tok: tok, from: home})
			}
		}
		return h
	})
	defer e.Close()
	// The round loop is driven explicitly (rather than via sim.Run) so the
	// exchange's fixed schedule maps onto observer phases: round 1 is the
	// cluster-ID setup broadcast, rounds 2..T+1 are the forward walk steps
	// (Lemma 2.4), and everything after is the leader response plus the
	// reversed-walk delivery (§2.2–2.3).
	phase := ""
	setPhase := func(want string) {
		if want != phase {
			if phase != "" {
				e.EndPhase()
			}
			e.BeginPhase(want)
			phase = want
		}
	}
	var res congest.Result
	for {
		switch next := e.Round() + 1; {
		case next == 1:
			setPhase("setup")
		case next <= plan.ForwardRounds+1:
			setPhase("forward")
		default:
			if phase == "forward" {
				carveReverseHeaps(handlers)
			}
			setPhase("reverse")
		}
		done, err := e.Step()
		if err != nil {
			if phase != "" {
				e.EndPhase()
			}
			return nil, e.Metrics(), err
		}
		if done {
			break
		}
	}
	if phase != "" {
		e.EndPhase()
	}
	res = e.Finish()
	out := &ExchangeResult{Responses: make([][]Token, n)}
	for v := 0; v < n; v++ {
		if res.Outputs[v] == nil {
			continue
		}
		resp := res.Outputs[v].([]Token)
		// Sort by seq for determinism.
		for i := 1; i < len(resp); i++ {
			for j := i; j > 0 && resp[j-1].Seq > resp[j].Seq; j-- {
				resp[j-1], resp[j] = resp[j], resp[j-1]
			}
		}
		out.Responses[v] = resp
		out.Delivered += len(resp)
	}
	out.Undelivered = totalTokens - out.Delivered
	return out, res.Metrics, nil
}
