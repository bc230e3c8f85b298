// Package core implements the paper's framework (Theorem 2.6): partition an
// H-minor-free network into high-conductance clusters via an expander
// decomposition, elect a maximum-degree leader v* in every cluster (§2.3),
// let v* gather the entire cluster topology over the cluster's edges via
// random-walk routing (Lemmas 2.3 and 2.4), have v* run an arbitrary
// sequential algorithm on G[V_i] locally, and route each vertex's O(log n)-
// bit share of the answer back by reversing the routing.
//
// All communication — the cluster-ID exchange, the §2.3 diameter self-check,
// leader election, the Lemma 2.3 degree-condition check, the Barenboim–Elkin
// orientation, and the topology/answer exchange — runs as real message
// passing on the CONGEST simulator and is accounted in Solution.Metrics.
// Only the clustering step itself uses the contract-equivalent decomposer
// from internal/expander (see DESIGN.md for the Chang–Saranurak
// substitution).
//
// The failure paths of §2.3 are implemented: clusters flagged by the
// diameter check reset to singletons; clusters failing the degree condition
// are reported (the property tester of §3.4 turns those into Reject); tokens
// that miss the routing budget surface as per-vertex delivery failures.
//
// # Prefix: the snapshot-invariant phases
//
// Given a clustering, the diameter self-check (with its singleton resets),
// leader election, orientation, and the routing budget depend only on the
// graph, the clustering, and a few Options fields — never on the solver,
// ε, or the seed (the primitives draw no randomness). Prepare simulates
// them once and returns a Prefix; a run with Options.Prefix set reuses the
// prefix's outputs instead of simulating those phases again. A server that
// answers many queries against one cached decomposition (internal/serve)
// therefore pays for the prefix once per snapshot.
//
// The accounting does not change: a run with a Prefix adds the prefix's
// per-phase Metrics to Solution.Metrics and Solution.Phases, and replays its
// phase report into Cfg.Obs (congest.Observer.Replay), so Solution and the
// observer's Report are identical to a run that simulated the phases
// itself. Phase costs are the run's CONGEST-model cost, whichever process
// simulated them. A replay emits no per-round trace events; callers that
// want a full round trace run without a Prefix.
//
// A Prefix applies only to the inputs it was prepared with (see
// Options.Prefix); any mismatch is an error, never a silent recompute.
package core

import (
	"fmt"
	"math"
	"sort"

	"expandergap/internal/congest"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
	"expandergap/internal/routing"
)

// DecomposerKind selects the clustering stage.
type DecomposerKind int

const (
	// SequentialDecomposer uses expander.Decompose (contract-reliable).
	SequentialDecomposer DecomposerKind = iota + 1
	// DistributedDecomposer uses expander.DistributedDecompose (MPX stage
	// measured as message passing).
	DistributedDecomposer
)

// PlanarDensity is the edge-density bound of planar graphs (|E| < 3·|V|),
// the default Options.Density.
const PlanarDensity = 3

// Options configures a framework run.
type Options struct {
	// Eps is the decomposition parameter ε of Theorem 2.6.
	Eps float64
	// Density is the edge-density bound t of the H-minor-free class (the
	// paper sets ε' = ε/t so that |E^r| ≤ ε·min{|V|, |E|}). Zero defaults
	// to PlanarDensity.
	Density int
	// Decomposer picks the clustering stage; zero = SequentialDecomposer.
	Decomposer DecomposerKind
	// Cfg is the simulator configuration for all message-passing phases.
	// The gather–solve–disseminate exchange takes 2T + 3 rounds, T being
	// the forward budget that Solution.Phases["forward-budget"] reports
	// (forwardBudget, or the tree schedule's bound on the Deterministic
	// track), and fails with congest.ErrMaxRounds before its first round
	// when that exceeds Cfg.MaxRounds.
	Cfg congest.Config
	// Deterministic routes topology and answers over BFS trees toward the
	// leaders (the Lemma 2.5 / Theorem 2.2 deterministic track) instead of
	// lazy random walks. Outputs are identical; only the routing schedule
	// and round counts differ.
	Deterministic bool
	// VertexPayload optionally ships one extra word per vertex to its
	// cluster leader inside the hello token (vertex weights for the
	// weighted MaxIS of §3.1, for example). Length must be g.N() when set;
	// each word must fit the CONGEST cap.
	VertexPayload []int64
	// Decomposition, when non-nil, is used as the clustering instead of
	// running a decomposer — the §2.3 checks and everything downstream
	// still execute as message passing against it. This is the resident-
	// server path (internal/serve): one cached decomposition amortized
	// across many queries. Length of Assignment must equal g.N().
	Decomposition *expander.Decomposition
	// Prefix, when non-nil, supplies the diameter check, leader election,
	// orientation, and routing budget from a Prepare call instead of
	// simulating them (see the package doc). It must have been prepared
	// for this graph and decomposition with the same Density, Cfg.Model and
	// Cfg.MaxRounds, and the run must have Cfg.FaultRate == 0; otherwise the
	// run fails.
	Prefix *Prefix
}

func (o Options) withDefaults() Options {
	if o.Density == 0 {
		o.Density = PlanarDensity
	}
	if o.Decomposer == 0 {
		o.Decomposer = SequentialDecomposer
	}
	return o
}

// LocalSolver is the sequential algorithm a cluster leader runs on its
// gathered topology. cluster is the induced subgraph of the leader's cluster
// with local vertex IDs; toOld maps local IDs to network IDs. The solver
// returns one int64 answer per network vertex of the cluster; missing
// entries default to 0.
//
// Answers must fit one CONGEST word (|answer| ≤ max(n², 2¹⁶)).
type LocalSolver func(cluster *graph.Graph, toOld []int) map[int]int64

// PayloadSolver is a LocalSolver that additionally receives the per-vertex
// payload words shipped via Options.VertexPayload (keyed by network vertex
// ID).
type PayloadSolver func(cluster *graph.Graph, toOld []int, payload map[int]int64) map[int]int64

// RunWithPayload is Run for solvers that need the per-vertex payload.
func RunWithPayload(g *graph.Graph, opts Options, solve PayloadSolver) (*Solution, error) {
	opts = opts.withDefaults()
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("core: eps must be in (0,1), got %v", opts.Eps)
	}
	if opts.VertexPayload != nil && len(opts.VertexPayload) != g.N() {
		return nil, fmt.Errorf("core: payload covers %d vertices, graph has %d", len(opts.VertexPayload), g.N())
	}
	if err := validateInjected(g, opts.Decomposition); err != nil {
		return nil, err
	}
	return run(g, opts, opts.Decomposition, nil, solve)
}

// validateInjected checks a caller-provided clustering against the graph.
func validateInjected(g *graph.Graph, dec *expander.Decomposition) error {
	if dec != nil && len(dec.Assignment) != g.N() {
		return fmt.Errorf("core: decomposition covers %d vertices, graph has %d", len(dec.Assignment), g.N())
	}
	return nil
}

// ClusterInfo describes one cluster of the partition as reconstructed at
// its leader.
type ClusterInfo struct {
	// Leader is the cluster leader v* (maximum cluster-degree, §2.3).
	Leader int
	// Members lists the cluster's vertices (ascending).
	Members []int
	// DegreeConditionOK reports the Lemma 2.3 check
	// deg(v*) ≥ φ²·|E_i| (with the constant 1, measured exactly).
	DegreeConditionOK bool
}

// Solution is the outcome of a framework run.
type Solution struct {
	// Values holds each vertex's answer word.
	Values []int64
	// Decomposition is the clustering used (after §2.3 failure resets).
	Decomposition *expander.Decomposition
	// Clusters describes each cluster, indexed by cluster ID.
	Clusters []ClusterInfo
	// Leader maps each vertex to its cluster leader.
	Leader []int
	// DiameterMarked flags vertices whose original cluster failed the §2.3
	// diameter self-check (they were reset to singletons).
	DiameterMarked []bool
	// Undelivered flags vertices whose answer never came back (routing
	// budget exhausted or message loss) — the §2.3 routing-failure signal.
	Undelivered []bool
	// TopologyLoss counts topology (edge) tokens whose round trip did not
	// complete. A positive count means some leader may have solved on an
	// incomplete cluster subgraph; per-vertex answers remain well-formed
	// but quality guarantees may degrade.
	TopologyLoss int
	// Metrics aggregates all message-passing phases.
	Metrics congest.Metrics
	// Phases records per-phase round counts for the experiment tables.
	Phases map[string]int
}

// Run executes the full Theorem 2.6 pipeline on g and applies solve in every
// cluster.
func Run(g *graph.Graph, opts Options, solve LocalSolver) (*Solution, error) {
	opts = opts.withDefaults()
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("core: eps must be in (0,1), got %v", opts.Eps)
	}
	if err := validateInjected(g, opts.Decomposition); err != nil {
		return nil, err
	}
	return run(g, opts, opts.Decomposition, solve, nil)
}

func run(g *graph.Graph, opts Options, injected *expander.Decomposition, solve LocalSolver, psolve PayloadSolver) (*Solution, error) {
	if opts.Prefix != nil {
		if err := opts.Prefix.check(g, injected, opts); err != nil {
			return nil, err
		}
	}
	n := g.N()
	sol := &Solution{
		Values:         make([]int64, n),
		Leader:         make([]int, n),
		DiameterMarked: make([]bool, n),
		Undelivered:    make([]bool, n),
		Phases:         make(map[string]int),
	}
	if n == 0 {
		sol.Decomposition = expander.Singletons(g)
		return sol, nil
	}

	// Phase 1: clustering with ε' = ε/t (Theorem 2.6).
	epsPrime := opts.Eps / float64(opts.Density)
	dec := injected
	var err error
	if dec == nil {
		// Sub-phases (mpx, refine) are named by the decomposer itself; the
		// sequential decomposer is leader-local and contributes zero rounds.
		opts.Cfg.Obs.BeginPhase("decompose")
		switch opts.Decomposer {
		case SequentialDecomposer:
			dec, err = expander.Decompose(g, epsPrime, expander.Options{Seed: opts.Cfg.Seed})
		case DistributedDecomposer:
			var m congest.Metrics
			dec, m, err = expander.DistributedDecompose(g, opts.Cfg, epsPrime)
			sol.Metrics.Add(m)
			sol.Phases["decompose"] = m.Rounds
		default:
			err = fmt.Errorf("core: unknown decomposer %d", opts.Decomposer)
		}
		opts.Cfg.Obs.EndPhase()
		if err != nil {
			return nil, err
		}
	}

	// Phases 2–4: the §2.3 diameter self-check (marked clusters reset to
	// singletons), leader election, and orientation — from the cached
	// prefix when one is given, else simulated live under the caller's
	// observer so a trace keeps their per-round events. A live run derives
	// the routing budget only when it will use it.
	pre := opts.Prefix
	if pre == nil {
		pre, err = prepare(g, dec, opts, !opts.Deterministic)
		if err != nil {
			return nil, err
		}
	} else {
		opts.Cfg.Obs.Replay(pre.report)
	}
	for _, ph := range pre.phases {
		sol.Metrics.Add(ph.metrics)
		sol.Phases[ph.name] = ph.metrics.Rounds
	}
	copy(sol.DiameterMarked, pre.marked)
	dec = pre.dec
	sol.Decomposition = dec
	leaders := pre.leaders
	copy(sol.Leader, leaders.Leader)

	// Phase 5+6: topology gathering and answer dissemination in one
	// exchange (Lemma 2.4 forward, reversed-walk backward).
	plan := routing.Plan{
		Cluster:  dec.Assignment,
		Leader:   leaders.Leader,
		Strategy: routing.RandomWalk,
	}
	if opts.Deterministic {
		// Lemma 2.5 track: build BFS trees toward the leaders and route
		// deterministically along them. The FIFO tree schedule delivers
		// every token within depth + backlog rounds, so the per-cluster
		// bound |V_i|·maxTokens + diameter is a safe budget.
		roots := make(map[int]int, len(dec.Clusters))
		for id, members := range dec.Clusters {
			roots[id] = leaders.Leader[members[0]]
		}
		bfs, m, berr := primitives.BFSForest(g, opts.Cfg, dec.Assignment, roots, pre.bound)
		if berr != nil {
			return nil, berr
		}
		sol.Metrics.Add(m)
		sol.Phases["bfs-forest"] = m.Rounds
		plan.Strategy = routing.TreeParent
		plan.Parent = bfs.Parent
		maxTokens := 4*opts.Density + 1
		for _, members := range dec.Clusters {
			if tb := len(members)*maxTokens + pre.bound + 8; tb > plan.ForwardRounds {
				plan.ForwardRounds = tb
			}
		}
	} else {
		plan.ForwardRounds = pre.budget
	}
	sol.Phases["forward-budget"] = plan.ForwardRounds
	tokens := buildTopologyTokens(g, dec.Assignment, pre.orient, opts.VertexPayload)
	solveCtx := &solveContext{
		g:            g,
		solve:        solve,
		psolve:       psolve,
		phi:          dec.Phi,
		leaderDegree: leaders.LeaderDegree,
		infoByLeader: make(map[int]*ClusterInfo),
	}
	opts.Cfg.Obs.BeginPhase("gather-solve-disseminate")
	ex, m, err := routing.ExchangeBatch(g, opts.Cfg, plan, tokens, solveCtx.respond)
	opts.Cfg.Obs.EndPhase()
	if err != nil {
		return nil, err
	}
	sol.Metrics.Add(m)
	sol.Phases["gather-solve-disseminate"] = m.Rounds

	// Collect per-vertex answers from the hello-token responses.
	for v := 0; v < n; v++ {
		got := false
		for _, resp := range ex.Responses[v] {
			if resp.Seq == 0 { // hello token carries the answer
				sol.Values[v] = resp.A
				got = true
			}
		}
		if !got {
			sol.Undelivered[v] = true
		}
		sol.TopologyLoss += len(tokens[v]) - len(ex.Responses[v])
		if !got {
			sol.TopologyLoss-- // the hello token was already counted above
		}
	}
	if sol.TopologyLoss < 0 {
		sol.TopologyLoss = 0
	}

	// Assemble cluster infos in cluster-ID order.
	sol.Clusters = make([]ClusterInfo, len(dec.Clusters))
	for id, members := range dec.Clusters {
		leader := leaders.Leader[members[0]]
		info := solveCtx.infoByLeader[leader]
		ci := ClusterInfo{Leader: leader, Members: members}
		if info != nil {
			ci.DegreeConditionOK = info.DegreeConditionOK
		}
		sol.Clusters[id] = ci
	}
	return sol, nil
}

// Prefix is the snapshot-invariant part of a framework run, prepared once by
// Prepare and shared read-only by any number of concurrent runs (via
// Options.Prefix): the §2.3 diameter check and its singleton resets, leader
// election, the Barenboim–Elkin orientation, and the random-walk routing
// budget, together with the per-phase Metrics and the observer report the
// phases produced.
type Prefix struct {
	// The inputs the prefix was prepared for (see check).
	g         *graph.Graph
	injected  *expander.Decomposition
	density   int
	model     congest.Model
	maxRounds int

	dec     *expander.Decomposition // after the §2.3 singleton resets
	marked  []bool
	bound   int // the §2.3 diameter bound b
	leaders primitives.LeaderResult
	orient  primitives.Orientation
	budget  int // forwardBudget; 0 when a live run does not need it
	phases  []prefixPhase
	report  *congest.Report
}

// prefixPhase is one simulated phase of a Prefix, in execution order.
type prefixPhase struct {
	name    string
	metrics congest.Metrics
}

// Prepare simulates the snapshot-invariant phases of a framework run on g
// with the clustering dec, for reuse via Options.Prefix by any number of
// later runs on the same inputs. opts supplies Density and Cfg (Model,
// MaxRounds); Cfg.Obs is ignored — the phases report into a private
// observer whose report the runs replay.
// Preparing with Cfg.FaultRate > 0 is an error: the drop coins depend on
// the seed, so faulty phases are not snapshot-invariant.
func Prepare(g *graph.Graph, dec *expander.Decomposition, opts Options) (*Prefix, error) {
	opts = opts.withDefaults()
	if dec == nil {
		return nil, fmt.Errorf("core: nil decomposition")
	}
	if err := validateInjected(g, dec); err != nil {
		return nil, err
	}
	if opts.Cfg.FaultRate > 0 {
		return nil, fmt.Errorf("core: cannot prepare a prefix with fault rate %v", opts.Cfg.FaultRate)
	}
	obs := congest.NewObserver()
	opts.Cfg.Obs = obs
	pre, err := prepare(g, dec, opts, true)
	if err != nil {
		return nil, err
	}
	pre.report = obs.Report()
	return pre, nil
}

// prepare runs the prefix phases live under opts.Cfg (and its observer).
// The routing budget — exact diameters of every cluster — is computed only
// when withBudget is set.
func prepare(g *graph.Graph, dec *expander.Decomposition, opts Options, withBudget bool) (*Prefix, error) {
	n := g.N()
	pre := &Prefix{
		g:         g,
		injected:  dec,
		density:   opts.Density,
		model:     opts.Cfg.Model,
		maxRounds: opts.Cfg.MaxRounds,
		marked:    make([]bool, n),
		bound:     diameterBound(dec.Phi, n),
	}
	if n == 0 {
		pre.dec = dec
		return pre, nil
	}

	// §2.3 diameter self-check; marked clusters reset to singletons.
	marked, m, err := primitives.DiameterCheck(g, opts.Cfg, dec.Assignment, pre.bound)
	if err != nil {
		return nil, err
	}
	pre.phases = append(pre.phases, prefixPhase{"diameter-check", m})
	pre.marked = marked
	if anyTrue(marked) {
		assign := append(primitives.ClusterAssignment(nil), dec.Assignment...)
		nextID := maxInt(assign) + 1
		for v, mk := range marked {
			if mk {
				assign[v] = nextID
				nextID++
			}
		}
		dec = expander.FromAssignment(g, assign, dec.Eps, dec.Phi)
	}
	pre.dec = dec

	// Leader election by (cluster-degree, ID).
	leaders, m, err := primitives.ElectLeaders(g, opts.Cfg, dec.Assignment, pre.bound)
	if err != nil {
		return nil, err
	}
	pre.phases = append(pre.phases, prefixPhase{"elect-leaders", m})
	pre.leaders = leaders

	// Barenboim–Elkin orientation so each vertex owns O(t) cluster edges.
	orient, m, err := primitives.LowOutDegreeOrientation(g, opts.Cfg, dec.Assignment, opts.Density, 2*intLog2(n)+4)
	if err != nil {
		return nil, err
	}
	pre.phases = append(pre.phases, prefixPhase{"orientation", m})
	pre.orient = orient

	if withBudget {
		pre.budget = forwardBudget(g, dec)
	}
	return pre, nil
}

// check reports whether the prefix may stand in for the live phases of a
// run on g with the clustering dec under opts (defaults applied).
func (p *Prefix) check(g *graph.Graph, dec *expander.Decomposition, opts Options) error {
	switch {
	case p.g != g:
		return fmt.Errorf("core: prefix was prepared for another graph")
	case p.injected != dec:
		return fmt.Errorf("core: prefix was prepared for another decomposition")
	case p.density != opts.Density:
		return fmt.Errorf("core: prefix was prepared with density %d, run has %d", p.density, opts.Density)
	case p.model != opts.Cfg.Model || p.maxRounds != opts.Cfg.MaxRounds:
		return fmt.Errorf("core: prefix was prepared under another simulator model or round cap")
	case opts.Cfg.FaultRate > 0:
		return fmt.Errorf("core: a prefix cannot serve a run with fault rate %v", opts.Cfg.FaultRate)
	}
	return nil
}

// forwardBudget derives the routing budget: the theoretical Lemma 2.4 value
// WalkBudget(φ, n) capped by the concrete lazy-walk hitting-time bound —
// the expected hitting time of a simple random walk is at most 2·m·D, the
// lazy walk doubles it, and a ×4 slack plus log n retries covers congestion
// and the high-probability requirement. The cap matters because the
// worst-case φ target is far below the conductance of real clusters.
func forwardBudget(g *graph.Graph, dec *expander.Decomposition) int {
	hitting := 0
	for i := range dec.Clusters {
		if len(dec.Clusters[i]) <= 1 {
			continue
		}
		sub := dec.ClusterView(g, i)
		b := 8*sub.M()*maxOf(sub.Diameter(), 1) + 64
		if b > hitting {
			hitting = b
		}
	}
	if hitting == 0 {
		return 16
	}
	if theory := routing.WalkBudget(dec.Phi, g.N()); theory < hitting {
		return theory
	}
	return hitting
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// diameterBound returns the §2.3 bound b = O(φ⁻¹ log n), capped at n (a
// connected cluster can never exceed diameter n-1).
func diameterBound(phi float64, n int) int {
	if phi <= 0 {
		return n
	}
	b := int(math.Ceil(2*math.Log(float64(n)+2)/phi)) + 1
	if b > n {
		b = n
	}
	if b < 2 {
		b = 2
	}
	return b
}

// buildTopologyTokens produces, for every vertex, one hello token (Seq 0,
// A = -1, B = the vertex payload word, defaulting to 0) plus one token per
// owned cluster edge (A = neighbor ID, B = edge weight, or sign encoded as
// ±weight for signed graphs).
func buildTopologyTokens(g *graph.Graph, cluster primitives.ClusterAssignment, orient primitives.Orientation, payload []int64) [][]routing.Token {
	n := g.N()
	tokens := make([][]routing.Token, n)
	for v := 0; v < n; v++ {
		var p int64
		if payload != nil {
			p = payload[v]
		}
		tokens[v] = append(tokens[v], routing.Token{A: -1, B: p})
	}
	for idx, owner := range orient.Owner {
		if owner < 0 {
			continue
		}
		e := g.EdgeAt(idx)
		if cluster[e.U] != cluster[e.V] {
			continue
		}
		payload := g.Weight(idx)
		if g.Signed() {
			payload = int64(g.Sign(idx)) * payload
		}
		tokens[owner] = append(tokens[owner], routing.Token{
			A: int64(e.Other(owner)),
			B: payload,
		})
	}
	return tokens
}

type solveContext struct {
	g            *graph.Graph
	solve        LocalSolver
	psolve       PayloadSolver
	phi          float64
	leaderDegree []int
	infoByLeader map[int]*ClusterInfo
}

// respond implements the leader-local computation: reconstruct G[V_i] from
// the absorbed tokens, check the Lemma 2.3 degree condition, run the solver,
// and answer every hello token with its origin's value.
func (sc *solveContext) respond(leader int, inbox []routing.Token) [][2]int64 {
	memberSet := map[int]bool{leader: true}
	type edge struct {
		u, v    int
		payload int64
	}
	var edges []edge
	helloPayload := make(map[int]int64)
	for _, tok := range inbox {
		memberSet[tok.Origin] = true
		if tok.A >= 0 {
			edges = append(edges, edge{u: tok.Origin, v: int(tok.A), payload: tok.B})
			memberSet[int(tok.A)] = true
		} else {
			helloPayload[tok.Origin] = tok.B
		}
	}
	members := make([]int, 0, len(memberSet))
	for v := range memberSet {
		members = append(members, v)
	}
	sort.Ints(members)
	toNew := make(map[int]int, len(members))
	for i, v := range members {
		toNew[v] = i
	}
	bld := graph.NewBuilder(len(members))
	for _, e := range edges {
		u, v := toNew[e.u], toNew[e.v]
		if u == v {
			continue
		}
		switch {
		case sc.g.Signed():
			sign := int8(1)
			if e.payload < 0 {
				sign = -1
			}
			bld.AddSignedEdge(u, v, sign)
		case sc.g.Weighted():
			bld.AddWeightedEdge(u, v, e.payload)
		default:
			bld.AddEdge(u, v)
		}
	}
	sub := bld.Graph()

	// Lemma 2.3 condition: deg(v*) ≥ φ²·|E_i|.
	degOK := float64(sc.leaderDegree[leader]) >= sc.phi*sc.phi*float64(sub.M())
	sc.infoByLeader[leader] = &ClusterInfo{Leader: leader, Members: members, DegreeConditionOK: degOK}

	var values map[int]int64
	if sc.psolve != nil {
		values = sc.psolve(sub, members, helloPayload)
	} else {
		values = sc.solve(sub, members)
	}
	out := make([][2]int64, len(inbox))
	for i, tok := range inbox {
		if tok.A == -1 {
			out[i] = [2]int64{values[tok.Origin], 1}
		} else {
			out[i] = [2]int64{0, 2} // plain ack for edge tokens
		}
	}
	return out
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

func maxInt(a []int) int {
	m := 0
	for _, x := range a {
		if x > m {
			m = x
		}
	}
	return m
}

func intLog2(n int) int {
	l := 0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}
