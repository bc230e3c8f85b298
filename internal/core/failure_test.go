package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
)

// Failure-path tests: the §2.3 machinery must detect and contain bad
// clusterings, and the deterministic (Lemma 2.5) track must produce the same
// outputs as the randomized one.

func TestInjectedBadDiameterClusterResets(t *testing.T) {
	// One "cluster" spanning a long path: the diameter self-check must mark
	// it and reset its vertices to singletons.
	g := graph.Path(40)
	dec := expander.FromAssignment(g, make([]int, g.N()), 0.5, 0.3) // phi=0.3 -> tiny b
	sol, err := Run(g, Options{Eps: dec.Eps, Decomposition: dec, Cfg: congest.Config{Seed: 1}}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, m := range sol.DiameterMarked {
		if m {
			marked++
		}
	}
	if marked != g.N() {
		t.Errorf("marked %d vertices, want all %d (diameter far above 2b+1)", marked, g.N())
	}
	// After the reset every vertex is a singleton: values are all 1.
	for v, val := range sol.Values {
		if sol.Undelivered[v] {
			continue
		}
		if val != 1 {
			t.Errorf("vertex %d: cluster size %d after reset, want 1", v, val)
		}
	}
}

func TestInjectedGoodClusteringKept(t *testing.T) {
	// Two tight clusters on a 2x8 grid: diameter check must pass, solver
	// sees the injected clusters.
	g := graph.Grid(2, 8)
	assign := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		if v%8 >= 4 {
			assign[v] = 1
		}
	}
	dec := expander.FromAssignment(g, assign, 0.5, 0.05)
	sol, err := Run(g, Options{Eps: dec.Eps, Decomposition: dec, Cfg: congest.Config{Seed: 2}}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if sol.DiameterMarked[v] {
			t.Fatalf("vertex %d wrongly marked", v)
		}
		if sol.Undelivered[v] {
			t.Fatalf("vertex %d undelivered", v)
		}
		if sol.Values[v] != 8 {
			t.Errorf("vertex %d: cluster size %d, want 8", v, sol.Values[v])
		}
	}
}

// TestRunWithDecompositionValidation checks that Run refuses an injected
// decomposition (Options.Decomposition) of another graph.
func TestRunWithDecompositionValidation(t *testing.T) {
	g := graph.Path(4)
	bad := expander.FromAssignment(graph.Path(3), []int{0, 0, 0}, 0.5, 0.1)
	if _, err := Run(g, Options{Eps: bad.Eps, Decomposition: bad}, clusterSizeSolver); err == nil {
		t.Error("mismatched decomposition accepted")
	}
}

func TestDeterministicTrackMatchesRandomized(t *testing.T) {
	g := graph.Grid(5, 5)
	rand1, err := Run(g, Options{Eps: 0.4, Cfg: congest.Config{Seed: 3}}, clusterEdgeSolver)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Run(g, Options{Eps: 0.4, Cfg: congest.Config{Seed: 3}, Deterministic: true}, clusterEdgeSolver)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if det.Undelivered[v] {
			t.Fatalf("deterministic track lost vertex %d", v)
		}
		if rand1.Values[v] != det.Values[v] {
			t.Errorf("vertex %d: randomized %d vs deterministic %d",
				v, rand1.Values[v], det.Values[v])
		}
	}
	if det.Phases["bfs-forest"] == 0 {
		t.Error("deterministic track should build a BFS forest")
	}
}

func TestDeterministicTrackOnWeighted(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 2, 7)
	b.AddWeightedEdge(2, 3, 9)
	b.AddWeightedEdge(3, 4, 11)
	b.AddWeightedEdge(4, 5, 13)
	b.AddWeightedEdge(5, 0, 15)
	g := b.Graph()
	sol, err := Run(g, Options{Eps: 0.9, Cfg: congest.Config{Seed: 5}, Deterministic: true},
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
	for id, members := range sol.Decomposition.Clusters {
		sub, _ := g.Induce(members).Materialize()
		for _, v := range members {
			if sol.Values[v] != sub.TotalWeight() {
				t.Errorf("cluster %d vertex %d: %d != %d", id, v, sol.Values[v], sub.TotalWeight())
			}
		}
	}
}

func TestDegreeConditionFailsOnInjectedSparseCluster(t *testing.T) {
	// A long cycle declared as "one cluster with phi=0.3": the Lemma 2.3
	// condition deg(v*) >= phi²·|E_i| becomes 2 >= 0.09·40 = 3.6, which must
	// fail — this is how the property tester detects non-minor-free inputs.
	// The §2.3 bound b = 26 covers the cycle's diameter 20, so the cluster
	// passes the diameter check and reaches its leader whole.
	g := graph.Cycle(40)
	dec := expander.FromAssignment(g, make([]int, g.N()), 0.9, 0.3)
	sol, err := Run(g, Options{
		Eps:           dec.Eps,
		Decomposition: dec,
		Cfg:           congest.Config{Seed: 7},
	}, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, ci := range sol.Clusters {
		if len(ci.Members) > 1 && !ci.DegreeConditionOK {
			failed = true
		}
	}
	if !failed {
		t.Error("degree condition should fail on a cycle with inflated phi")
	}
}

// A forward budget whose 2T+3-round exchange exceeds Cfg.MaxRounds fails with
// ErrMaxRounds as soon as the exchange is set up, naming both numbers, even
// though every earlier phase fits the limit.
func TestRunExchangeOverRoundLimitFailsFast(t *testing.T) {
	g := graph.Grid(4, 4)
	opts := Options{Eps: 0.4, Cfg: congest.Config{Seed: 1}}
	sol, err := Run(g, opts, clusterSizeSolver)
	if err != nil {
		t.Fatal(err)
	}
	budget := sol.Phases["forward-budget"]
	opts.Cfg.MaxRounds = 2*budget + 2
	_, err = Run(g, opts, clusterSizeSolver)
	if !errors.Is(err, congest.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	for _, want := range []string{fmt.Sprint(2*budget + 3), fmt.Sprintf("%d-round", 2*budget+2)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
