package core

import (
	"math/rand"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// clusterSizeSolver assigns every vertex the size of its cluster — easy to
// verify globally.
func clusterSizeSolver(cluster *graph.Graph, toOld []int) map[int]int64 {
	out := make(map[int]int64, len(toOld))
	for _, v := range toOld {
		out[v] = int64(cluster.N())
	}
	return out
}

// clusterEdgeSolver assigns every vertex the edge count of its cluster.
func clusterEdgeSolver(cluster *graph.Graph, toOld []int) map[int]int64 {
	out := make(map[int]int64, len(toOld))
	for _, v := range toOld {
		out[v] = int64(cluster.M())
	}
	return out
}

func TestRunClusterSizes(t *testing.T) {
	g := graph.Grid(6, 6)
	sol, err := Run(g, Options{Eps: 0.4, Cfg: congest.Config{Seed: 1}}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if sol.Undelivered[v] {
			t.Fatalf("vertex %d: routing failed", v)
		}
		id := sol.Decomposition.Assignment[v]
		want := int64(len(sol.Decomposition.Clusters[id]))
		if sol.Values[v] != want {
			t.Errorf("vertex %d: value %d, want cluster size %d", v, sol.Values[v], want)
		}
	}
	if sol.Metrics.Rounds == 0 {
		t.Error("no rounds recorded")
	}
	for _, phase := range []string{"diameter-check", "elect-leaders", "orientation", "gather-solve-disseminate"} {
		if sol.Phases[phase] == 0 {
			t.Errorf("phase %q recorded no rounds", phase)
		}
	}
}

func TestRunTopologyReconstructionExact(t *testing.T) {
	// The edge-count solver proves the leader reconstructed the cluster
	// subgraph exactly: compare against the true induced subgraph.
	g := graph.TriangulatedGrid(5, 5)
	sol, err := Run(g, Options{Eps: 0.4, Cfg: congest.Config{Seed: 3}}, clusterEdgeSolver)
	if err != nil {
		t.Fatal(err)
	}
	for id, members := range sol.Decomposition.Clusters {
		sub, _ := g.Induce(members).Materialize()
		for _, v := range members {
			if sol.Undelivered[v] {
				t.Fatalf("vertex %d undelivered", v)
			}
			if sol.Values[v] != int64(sub.M()) {
				t.Errorf("cluster %d vertex %d: leader saw %d edges, truth %d",
					id, v, sol.Values[v], sub.M())
			}
		}
	}
}

func TestRunWeightedTopology(t *testing.T) {
	// Weighted edges survive gathering: solver returns total cluster weight.
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 10)
	b.AddWeightedEdge(1, 2, 20)
	b.AddWeightedEdge(2, 3, 30)
	b.AddWeightedEdge(3, 0, 40)
	g := b.Graph()
	sol, err := Run(g, Options{Eps: 0.9, Cfg: congest.Config{Seed: 5}},
		func(cluster *graph.Graph, toOld []int) map[int]int64 {
			out := make(map[int]int64)
			for _, v := range toOld {
				out[v] = cluster.TotalWeight()
			}
			return out
		})
	if err != nil {
		t.Fatal(err)
	}
	// With eps=0.9 the 4-cycle should stay one cluster of total weight 100.
	if len(sol.Decomposition.Clusters) == 1 {
		for v := 0; v < 4; v++ {
			if sol.Values[v] != 100 {
				t.Errorf("vertex %d: weight %d, want 100", v, sol.Values[v])
			}
		}
	} else {
		// Decomposer split it; each vertex still sees its own cluster's
		// weight consistently.
		for id, members := range sol.Decomposition.Clusters {
			sub, _ := g.Induce(members).Materialize()
			for _, v := range members {
				if sol.Values[v] != sub.TotalWeight() {
					t.Errorf("cluster %d: value %d, want %d", id, sol.Values[v], sub.TotalWeight())
				}
			}
		}
	}
}

func TestRunSignedTopology(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddSignedEdge(0, 1, 1)
	b.AddSignedEdge(1, 2, -1)
	b.AddSignedEdge(0, 2, -1)
	g := b.Graph()
	sol, err := Run(g, Options{Eps: 0.9, Cfg: congest.Config{Seed: 7}},
		func(cluster *graph.Graph, toOld []int) map[int]int64 {
			neg := int64(0)
			for i := 0; i < cluster.M(); i++ {
				if cluster.Sign(i) == -1 {
					neg++
				}
			}
			out := make(map[int]int64)
			for _, v := range toOld {
				out[v] = neg
			}
			return out
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Decomposition.Clusters) == 1 && sol.Values[0] != 2 {
		t.Errorf("negative edge count = %d, want 2", sol.Values[0])
	}
}

func TestRunDistributedDecomposer(t *testing.T) {
	g := graph.Grid(5, 5)
	sol, err := Run(g, Options{
		Eps:        0.5,
		Decomposer: DistributedDecomposer,
		Cfg:        congest.Config{Seed: 11},
	}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Phases["decompose"] == 0 {
		t.Error("distributed decomposer should record rounds")
	}
	for v := 0; v < g.N(); v++ {
		if sol.Undelivered[v] {
			t.Fatalf("vertex %d undelivered", v)
		}
	}
}

func TestRunDegreeConditionOnCliques(t *testing.T) {
	// Cliques are expanders with a huge max degree: the Lemma 2.3 check must
	// pass.
	g := graph.Complete(10)
	sol, err := Run(g, Options{Eps: 0.3, Cfg: congest.Config{Seed: 13}}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range sol.Clusters {
		if len(ci.Members) > 1 && !ci.DegreeConditionOK {
			t.Errorf("clique cluster failed degree condition: %+v", ci)
		}
	}
}

func TestRunInvalidOptions(t *testing.T) {
	g := graph.Path(4)
	if _, err := Run(g, Options{Eps: 0}, clusterSizeSolver); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Run(g, Options{Eps: 0.5, Decomposer: DecomposerKind(99)}, clusterSizeSolver); err == nil {
		t.Error("unknown decomposer accepted")
	}
}

func TestRunEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Graph()
	sol, err := Run(g, Options{Eps: 0.5}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Values) != 0 {
		t.Error("empty graph should yield empty solution")
	}
}

func TestRunSingletonVerticesGetSolved(t *testing.T) {
	// A graph with an isolated vertex: its own cluster, solver still runs.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Graph() // vertices 3 and 4 isolated
	sol, err := Run(g, Options{Eps: 0.5, Cfg: congest.Config{Seed: 17}}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Values[3] != 1 || sol.Values[4] != 1 {
		t.Errorf("isolated vertices got %d,%d, want 1,1", sol.Values[3], sol.Values[4])
	}
}

func TestRunDeterminism(t *testing.T) {
	g := graph.Torus(4, 4)
	run := func() []int64 {
		sol, err := Run(g, Options{Eps: 0.4, Cfg: congest.Config{Seed: 19}}, clusterEdgeSolver)
		if err != nil {
			t.Fatal(err)
		}
		return sol.Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunLeaderIsMaxDegreeMember(t *testing.T) {
	g := graph.RandomMaximalPlanar(40, rand.New(rand.NewSource(99)))
	sol, err := Run(g, Options{Eps: 0.3, Cfg: congest.Config{Seed: 23}}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	for id, members := range sol.Decomposition.Clusters {
		leader := sol.Clusters[id].Leader
		inCluster := false
		for _, v := range members {
			if v == leader {
				inCluster = true
			}
		}
		if !inCluster {
			t.Errorf("cluster %d leader %d not a member", id, leader)
		}
		// Leader has max same-cluster degree.
		cdeg := func(v int) int {
			d := 0
			g.ForEachNeighbor(v, func(u, _ int) {
				if sol.Decomposition.Assignment[u] == id {
					d++
				}
			})
			return d
		}
		ld := cdeg(leader)
		for _, v := range members {
			if cdeg(v) > ld {
				t.Errorf("cluster %d: member %d has degree %d > leader's %d", id, v, cdeg(v), ld)
			}
		}
	}
}
