package serve

import (
	"fmt"
	"sort"

	"expandergap/internal/apps/ldd"
	"expandergap/internal/apps/matching"
	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/routing"
)

// Families lists the served query families in canonical order.
func Families() []string { return []string{"matching", "mis", "clustering", "walkroute"} }

// Params is the JSON body of a POST /query/<family> request. Eps, Seed,
// Levels, Budget, and Deterministic select the canonical run and form the
// batch/cache key; Vertices and Sources only project the shared result onto
// a subset and deliberately stay out of the key, so requests that differ
// only in projection coalesce into one simulator run.
type Params struct {
	// Eps is the approximation parameter (default 0.25).
	Eps float64 `json:"eps,omitempty"`
	// Seed drives every PRNG of the run (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Levels is the KPR chopping depth (clustering family only; default 3;
	// at most max(n, 3)).
	Levels int `json:"levels,omitempty"`
	// Budget overrides the walk forward budget (walkroute family only;
	// 0 = the snapshot's default; at most 8n+256).
	Budget int `json:"budget,omitempty"`
	// Deterministic selects the tree-routing framework track.
	Deterministic bool `json:"deterministic,omitempty"`
	// Vertices restricts the response to these vertices (projection only).
	Vertices []int `json:"vertices,omitempty"`
	// Sources is the walkroute alias for Vertices.
	Sources []int `json:"sources,omitempty"`
}

func (p Params) withDefaults(family string) Params {
	if p.Eps == 0 {
		p.Eps = 0.25
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if family == "clustering" && p.Levels == 0 {
		p.Levels = 3
	}
	return p
}

func (p Params) validate(family string, n int) error {
	if p.Eps <= 0 || p.Eps >= 1 {
		return fmt.Errorf("eps must be in (0,1), got %v", p.Eps)
	}
	if p.Levels < 0 || p.Budget < 0 {
		return fmt.Errorf("levels and budget must be non-negative")
	}
	if hi := maxWalkBudget(n); p.Budget > hi {
		return fmt.Errorf("budget %d exceeds 8n+256 = %d", p.Budget, hi)
	}
	if hi := maxLevels(n); p.Levels > hi {
		return fmt.Errorf("levels %d exceeds max(n,3) = %d", p.Levels, hi)
	}
	for _, v := range p.selection() {
		if v < 0 || v >= n {
			return fmt.Errorf("vertex %d out of range [0,%d)", v, n)
		}
	}
	return nil
}

// selection returns the projection subset (Vertices with Sources as an
// alias), nil when the full result is wanted.
func (p Params) selection() []int {
	if len(p.Vertices) > 0 {
		return p.Vertices
	}
	return p.Sources
}

// key is the canonical batch/cache identity of the run these parameters
// select. Projection fields are excluded on purpose.
func (p Params) key(family string) string {
	return fmt.Sprintf("%s|eps=%g|seed=%d|levels=%d|budget=%d|det=%t",
		family, p.Eps, p.Seed, p.Levels, p.Budget, p.Deterministic)
}

// PhaseAccount is one named span of the run's observer tree.
type PhaseAccount struct {
	Name     string `json:"name"`
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	Words    int64  `json:"words"`
	Bits     int64  `json:"bits"`
}

// Accounting is the structured per-query cost report, produced by the
// congest.Observer span machinery attached to the canonical run.
type Accounting struct {
	Rounds   int            `json:"rounds"`
	Messages int64          `json:"messages"`
	Words    int64          `json:"words"`
	Bits     int64          `json:"bits"`
	Phases   []PhaseAccount `json:"phases,omitempty"`
}

// ClusterStat is one decomposition cluster's slice of a result. Stat is
// family-specific: matched pairs inside the cluster (matching), independent-
// set members (mis), distinct refined labels (clustering), tokens absorbed
// by the cluster leader (walkroute).
type ClusterStat struct {
	ID     int `json:"id"`
	Leader int `json:"leader"`
	Size   int `json:"size"`
	Stat   int `json:"stat"`
}

// Result is the canonical, deterministic outcome of one (epoch, family,
// params) run — the unit the cache stores and batched requests share.
// Family-specific fields are omitempty unions.
type Result struct {
	Family   string `json:"family"`
	Epoch    int64  `json:"epoch"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Clusters int    `json:"clusters"`

	// matching
	Mate         []int `json:"mate,omitempty"`
	MatchingSize int   `json:"matching_size,omitempty"`
	Weight       int64 `json:"weight,omitempty"`

	// mis
	Set     []int `json:"set,omitempty"`
	SetSize int   `json:"set_size,omitempty"`

	// clustering
	Labels      []int   `json:"labels,omitempty"`
	CutEdges    int     `json:"cut_edges,omitempty"`
	CutFraction float64 `json:"cut_fraction,omitempty"`
	MaxDiameter int     `json:"max_diameter,omitempty"`

	// walkroute
	Delivered   int   `json:"delivered,omitempty"`
	Undelivered int   `json:"undelivered,omitempty"`
	DeliveredTo []int `json:"delivered_to,omitempty"` // per-vertex leader reached, -1 = missed budget

	PerCluster []ClusterStat `json:"per_cluster"`
	Accounting Accounting    `json:"accounting"`
}

// VertexAnswer is one projected entry of a Result: Value is the vertex's
// mate (or -1), set membership (0/1), cluster label, or leader reached
// (or -1), by family.
type VertexAnswer struct {
	V     int   `json:"v"`
	Value int64 `json:"value"`
}

// project extracts the answers for the requested vertices, ascending by
// vertex ID with duplicates removed. mis membership is a binary search:
// maxis.Approximate lists Set in ascending order.
func (r *Result) project(vertices []int) []VertexAnswer {
	sel := append([]int(nil), vertices...)
	sort.Ints(sel)
	out := make([]VertexAnswer, 0, len(sel))
	for i, v := range sel {
		if i > 0 && v == sel[i-1] {
			continue
		}
		var val int64
		switch r.Family {
		case "matching":
			val = int64(r.Mate[v])
		case "mis":
			if j := sort.SearchInts(r.Set, v); j < len(r.Set) && r.Set[j] == v {
				val = 1
			}
		case "clustering":
			val = int64(r.Labels[v])
		case "walkroute":
			val = int64(r.DeliveredTo[v])
		}
		out = append(out, VertexAnswer{V: v, Value: val})
	}
	return out
}

// runQuery executes the canonical run for one (snapshot, family, params)
// key. Every run gets its own passive Observer; the snapshot's cached
// decomposition is injected so no query ever re-decomposes, and the
// framework families reuse the snapshot's cached prefix so no query after
// the first re-simulates the snapshot-invariant phases.
func runQuery(snap *Snapshot, family string, p Params) (*Result, error) {
	obs := congest.NewObserver()
	cfg := congest.Config{Seed: p.Seed, Obs: obs}
	coreOpts := core.Options{Decomposition: snap.Dec, Deterministic: p.Deterministic}
	if family == "matching" || family == "mis" || family == "clustering" {
		pre, err := snap.frameworkPrefix(cfg)
		if err != nil {
			return nil, err
		}
		coreOpts.Prefix = pre
	}
	res := &Result{
		Family:   family,
		Epoch:    snap.Epoch,
		N:        snap.G.N(),
		M:        snap.G.M(),
		Clusters: len(snap.Dec.Clusters),
	}
	switch family {
	case "matching":
		mr, err := matching.ApproximateMWM(snap.G, matching.Options{Eps: p.Eps, Cfg: cfg, Core: coreOpts})
		if err != nil {
			return nil, err
		}
		res.Mate = mr.Mate
		res.MatchingSize = mr.Size()
		res.Weight = mr.Weight(snap.G)
	case "mis":
		ir, err := maxis.Approximate(snap.G, maxis.Options{Eps: p.Eps, Cfg: cfg, Core: coreOpts})
		if err != nil {
			return nil, err
		}
		res.Set = ir.Set
		res.SetSize = len(ir.Set)
	case "clustering":
		lr, err := ldd.Decompose(snap.G, ldd.Options{Eps: p.Eps, Levels: p.Levels, Cfg: cfg, Core: coreOpts})
		if err != nil {
			return nil, err
		}
		res.Labels = lr.Labels
		res.CutEdges = lr.CutEdges
		res.CutFraction = lr.CutFraction
		res.MaxDiameter = lr.MaxDiameter
	case "walkroute":
		if err := runWalkRoute(snap, p, cfg, res); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown query family %q", family)
	}
	res.PerCluster = perClusterStats(snap, res)
	res.Accounting = accountingFromObserver(obs)
	return res, nil
}

// runWalkRoute routes one hello token from every vertex to its cluster
// leader over lazy random walks (Lemma 2.4) and back, against the
// snapshot's leader table.
func runWalkRoute(snap *Snapshot, p Params, cfg congest.Config, res *Result) error {
	n := snap.G.N()
	budget := p.Budget
	if budget == 0 {
		budget = snap.WalkBudget
	}
	// The exchange takes 2*budget+2 rounds; keep the simulator cap above it.
	if need := 2*budget + 16; cfg.MaxRounds < need {
		cfg.MaxRounds = need
	}
	tokens := make([][]routing.Token, n)
	for v := range tokens {
		tokens[v] = []routing.Token{{A: -1}}
	}
	plan := routing.Plan{
		Cluster:       snap.Dec.Assignment,
		Leader:        snap.Leader,
		ForwardRounds: budget,
		Strategy:      routing.RandomWalk,
	}
	if p.Deterministic {
		plan.Strategy = routing.TreeParent
		parent, err := treeParents(snap)
		if err != nil {
			return err
		}
		plan.Parent = parent
	}
	cfg.Obs.BeginPhase("walkroute")
	ex, _, err := routing.Exchange(snap.G, cfg, plan, tokens,
		func(leader int, t routing.Token) (int64, int64) { return int64(leader), 0 })
	cfg.Obs.EndPhase()
	if err != nil {
		return err
	}
	res.DeliveredTo = make([]int, n)
	for v := 0; v < n; v++ {
		res.DeliveredTo[v] = -1
		for _, resp := range ex.Responses[v] {
			if resp.Seq == 0 {
				res.DeliveredTo[v] = int(resp.A)
			}
		}
		if res.DeliveredTo[v] >= 0 {
			res.Delivered++
		} else {
			res.Undelivered++
		}
	}
	return nil
}

// treeParents builds per-cluster BFS parents toward the leaders for the
// deterministic walkroute track, sequentially from the snapshot (local
// computation on cached state, no simulator rounds).
func treeParents(snap *Snapshot) ([]int, error) {
	n := snap.G.N()
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	// One BFS per cluster, restricted to it. Clusters are disjoint, so one
	// seen bitmap and one queue buffer serve them all.
	inCluster := snap.Dec.Assignment
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	for _, members := range snap.Dec.Clusters {
		root := snap.Leader[members[0]]
		cid := inCluster[root]
		queue = append(queue[:0], root)
		seen[root] = true
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			snap.G.ForEachNeighbor(u, func(w, _ int) {
				if inCluster[w] == cid && !seen[w] {
					seen[w] = true
					parent[w] = u
					queue = append(queue, w)
				}
			})
		}
	}
	return parent, nil
}

// perClusterStats slices the family result along the snapshot's clusters.
func perClusterStats(snap *Snapshot, res *Result) []ClusterStat {
	stats := make([]ClusterStat, len(snap.Dec.Clusters))
	assign := snap.Dec.Assignment
	var setCount []int // mis: set members per cluster, in one pass over Set
	if res.Family == "mis" {
		setCount = make([]int, len(stats))
		for _, v := range res.Set {
			setCount[assign[v]]++
		}
	}
	// clustering: one map for all clusters, label -> 1 + the last cluster
	// ID that counted it, so each cluster counts its distinct labels
	// without a map of its own.
	var labelStamp map[int]int
	if res.Family == "clustering" {
		labelStamp = make(map[int]int)
	}
	for id, members := range snap.Dec.Clusters {
		st := ClusterStat{ID: id, Leader: snap.Leader[members[0]], Size: len(members)}
		switch res.Family {
		case "matching":
			for _, v := range members {
				if m := res.Mate[v]; m > v && assign[m] == id {
					st.Stat++
				}
			}
		case "mis":
			st.Stat = setCount[id]
		case "clustering":
			for _, v := range members {
				if l := res.Labels[v]; labelStamp[l] != id+1 {
					labelStamp[l] = id + 1
					st.Stat++
				}
			}
		case "walkroute":
			leader := st.Leader
			for _, v := range members {
				if res.DeliveredTo[v] == leader {
					st.Stat++
				}
			}
		}
		stats[id] = st
	}
	return stats
}

// accountingFromObserver flattens the observer's phase tree into the
// per-query accounting: run totals plus the top-level named spans.
func accountingFromObserver(obs *congest.Observer) Accounting {
	rep := obs.Report()
	acc := Accounting{
		Rounds:   rep.Rounds,
		Messages: rep.Messages,
		Words:    rep.Words,
		Bits:     rep.Bits,
	}
	for _, ph := range rep.Phases {
		acc.Phases = append(acc.Phases, PhaseAccount{
			Name:     ph.Name,
			Rounds:   ph.Rounds,
			Messages: ph.Messages,
			Words:    ph.Words,
			Bits:     ph.Bits,
		})
	}
	return acc
}
