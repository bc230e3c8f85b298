// Package primitives implements the standard CONGEST building blocks the
// framework composes: cluster-restricted BFS forests, leader election by
// maximum degree (§2.3 of the paper), the Barenboim–Elkin low-out-degree
// orientation used by the information-gathering step (§2.2), and the
// cluster-diameter self-check the paper uses to detect failed
// decompositions (§2.3).
//
// Every primitive is a genuine message-passing algorithm executed by the
// congest.Simulator. Primitives are cluster-aware: vertices carry a cluster
// ID and only communicate with same-cluster neighbors, so one run executes
// the primitive "in parallel for all clusters", exactly as the paper's
// framework does. A vertex learns its neighbors' cluster IDs in one initial
// exchange round, which is included in the reported metrics.
package primitives

import (
	"fmt"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// ClusterAssignment maps each vertex to its cluster ID. IDs are arbitrary
// non-negative integers; vertices with distinct IDs never exchange payload
// messages in cluster-aware primitives.
type ClusterAssignment []int

// Singletons returns the assignment where every vertex is its own cluster.
func Singletons(n int) ClusterAssignment {
	c := make(ClusterAssignment, n)
	for i := range c {
		c[i] = i
	}
	return c
}

// Uniform returns the assignment placing all n vertices in cluster 0.
func Uniform(n int) ClusterAssignment {
	return make(ClusterAssignment, n)
}

// Clusters groups vertex IDs by cluster.
func (c ClusterAssignment) Clusters() map[int][]int {
	m := make(map[int][]int)
	for v, id := range c {
		m[id] = append(m[id], v)
	}
	return m
}

// Validate checks the assignment covers exactly the vertices of g.
func (c ClusterAssignment) Validate(g *graph.Graph) error {
	if len(c) != g.N() {
		return fmt.Errorf("primitives: assignment covers %d vertices, graph has %d", len(c), g.N())
	}
	for v, id := range c {
		if id < 0 {
			return fmt.Errorf("primitives: vertex %d has negative cluster ID %d", v, id)
		}
	}
	return nil
}

// clusterBase handles the initial cluster-ID exchange shared by all
// cluster-aware primitives. Phase logic starts at phase round 1, which is
// simulator round 2.
type clusterBase struct {
	clusterID int
	samePorts []int // ports leading to same-cluster neighbors
	ready     bool
}

func (b *clusterBase) Init(v *congest.Vertex) {
	v.BroadcastWords(int64(b.clusterID))
}

// absorb processes the round-1 ID exchange; returns true once ready and the
// adjusted phase round (round-1).
func (b *clusterBase) absorb(v *congest.Vertex, round int, recv []congest.Incoming) (int, bool) {
	if round == 1 {
		for _, in := range recv {
			if in.Msg[0] == int64(b.clusterID) {
				b.samePorts = append(b.samePorts, in.Port)
			}
		}
		b.ready = true
		return 0, false
	}
	return round - 1, true
}

// sendSame sends one message carrying words to every same-cluster neighbor.
// All receivers share one arena-backed buffer (received messages are
// read-only and expire when the receiver's Round returns), so a flood step
// costs no allocations regardless of degree.
func (b *clusterBase) sendSame(v *congest.Vertex, words ...int64) {
	if len(b.samePorts) == 0 {
		return
	}
	buf := v.MsgBuf(len(words))
	copy(buf, words)
	for _, p := range b.samePorts {
		v.Send(p, buf)
	}
}

// BFSResult is the output of BFSForest.
type BFSResult struct {
	// Parent[v] is v's BFS parent (itself for roots, -1 if unreached).
	Parent []int
	// Dist[v] is the hop distance from the cluster root (-1 if unreached).
	Dist []int
	// Root[v] is the root vertex of v's tree (-1 if unreached).
	Root []int
}

type bfsHandler struct {
	clusterBase
	isRoot bool
	dist   int
	parent int
	root   int
	budget int
	sent   bool
}

func (h *bfsHandler) Round(v *congest.Vertex, round int, recv []congest.Incoming) {
	pr, ok := h.absorb(v, round, recv)
	if !ok {
		if h.isRoot {
			h.dist = 0
			h.parent = v.ID()
			h.root = v.ID()
			// The root must be awake next round to launch the wave.
			return
		}
		// Nothing to do until the wave arrives (a message wakes us early)
		// or the mandatory output round pr==budget (simulator round
		// budget+1, driven by the timer).
		v.SleepUntil(h.budget + 1)
		return
	}
	if pr == 1 && h.isRoot && !h.sent {
		h.sent = true
		h.sendSame(v, int64(v.ID()), 0)
	} else if h.dist == -1 {
		for _, in := range recv {
			if len(in.Msg) < 2 {
				continue
			}
			h.dist = int(in.Msg[1]) + 1
			h.parent = in.From
			h.root = int(in.Msg[0])
			h.sent = true
			h.sendSame(v, in.Msg[0], int64(h.dist))
			break
		}
	}
	if pr >= h.budget {
		v.SetOutput([3]int{h.parent, h.dist, h.root})
		v.Halt()
		return
	}
	// Idle until a (possibly duplicate) wave message or the output round;
	// skipped rounds would have observed an empty recv and done nothing.
	v.SleepUntil(h.budget + 1)
}

// BFSForest builds a BFS tree inside every cluster from the given roots
// (map cluster ID -> root vertex). budget is the number of propagation
// rounds and must be at least the maximum cluster diameter for full
// coverage. Vertices in clusters without a root stay unreached.
func BFSForest(g *graph.Graph, cfg congest.Config, cluster ClusterAssignment, roots map[int]int, budget int) (BFSResult, congest.Metrics, error) {
	if err := cluster.Validate(g); err != nil {
		return BFSResult{}, congest.Metrics{}, err
	}
	cfg.Obs.BeginPhase("bfs-forest")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		h := &bfsHandler{
			clusterBase: clusterBase{clusterID: cluster[v.ID()]},
			dist:        -1,
			parent:      -1,
			root:        -1,
			budget:      budget,
		}
		h.isRoot = roots[cluster[v.ID()]] == v.ID()
		return h
	})
	if err != nil {
		return BFSResult{}, res.Metrics, err
	}
	out := BFSResult{
		Parent: make([]int, g.N()),
		Dist:   make([]int, g.N()),
		Root:   make([]int, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		tuple := res.Outputs[v].([3]int)
		out.Parent[v], out.Dist[v], out.Root[v] = tuple[0], tuple[1], tuple[2]
	}
	return out, res.Metrics, nil
}

type leaderHandler struct {
	clusterBase
	bestDeg int
	bestID  int
	budget  int
	changed bool
}

func (h *leaderHandler) Round(v *congest.Vertex, round int, recv []congest.Incoming) {
	pr, ok := h.absorb(v, round, recv)
	if !ok {
		// Own degree within the cluster counts same-cluster neighbors; that
		// is known right after the exchange.
		return
	}
	if pr == 1 {
		h.bestDeg = len(h.samePorts)
		h.bestID = v.ID()
		h.changed = true
	}
	for _, in := range recv {
		if len(in.Msg) < 2 {
			continue
		}
		deg, id := int(in.Msg[0]), int(in.Msg[1])
		if deg > h.bestDeg || (deg == h.bestDeg && id > h.bestID) {
			h.bestDeg, h.bestID = deg, id
			h.changed = true
		}
	}
	if h.changed {
		h.changed = false
		h.sendSame(v, int64(h.bestDeg), int64(h.bestID))
	}
	if pr >= h.budget {
		v.SetOutput([2]int{h.bestID, h.bestDeg})
		v.Halt()
		return
	}
	if pr >= 1 {
		// Between improvements this vertex is silent: without an incoming
		// candidate, changed stays false and nothing is sent. Sleep until a
		// message (a new candidate) or the output round. The absorb round
		// (pr==0) must not sleep — every vertex announces itself at pr==1.
		v.SleepUntil(h.budget + 1)
	}
}

// LeaderResult is the output of ElectLeaders.
type LeaderResult struct {
	// Leader[v] is the elected leader of v's cluster: the vertex maximizing
	// (cluster-degree, ID), the paper's §2.3 selection rule for v*.
	Leader []int
	// LeaderDegree[v] is the cluster-degree of that leader.
	LeaderDegree []int
}

// ElectLeaders elects, in every cluster, the vertex with maximum
// same-cluster degree (ties broken by larger ID), by flooding (deg, ID)
// pairs for budget rounds. budget must be at least the maximum cluster
// diameter.
//
// The schedule is fixed by budget: the ID exchange plus budget phase rounds,
// and one more to deliver a candidate that improved in the output round.
// When those budget+2 rounds exceed the simulator's round limit,
// ElectLeaders fails with congest.ErrMaxRounds before its first round.
func ElectLeaders(g *graph.Graph, cfg congest.Config, cluster ClusterAssignment, budget int) (LeaderResult, congest.Metrics, error) {
	if err := cluster.Validate(g); err != nil {
		return LeaderResult{}, congest.Metrics{}, err
	}
	cfg.Obs.BeginPhase("elect-leaders")
	defer cfg.Obs.EndPhase()
	sim := congest.NewSimulator(g, cfg)
	if need, limit := budget+2, sim.Config().MaxRounds; need > limit {
		return LeaderResult{}, congest.Metrics{}, fmt.Errorf("primitives: leader election needs %d rounds for budget %d, over the %d-round limit: %w",
			need, budget, limit, congest.ErrMaxRounds)
	}
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		return &leaderHandler{
			clusterBase: clusterBase{clusterID: cluster[v.ID()]},
			budget:      budget,
		}
	})
	if err != nil {
		return LeaderResult{}, res.Metrics, err
	}
	out := LeaderResult{
		Leader:       make([]int, g.N()),
		LeaderDegree: make([]int, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		pair := res.Outputs[v].([2]int)
		out.Leader[v], out.LeaderDegree[v] = pair[0], pair[1]
	}
	return out, res.Metrics, nil
}
