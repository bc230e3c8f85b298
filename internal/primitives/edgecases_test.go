package primitives

import (
	"testing"

	"expandergap/internal/graph"
)

func TestBFSForestInsufficientBudget(t *testing.T) {
	// Budget below the diameter: distant vertices stay unreached — the
	// caller-visible signature of an under-budgeted phase.
	g := graph.Path(10)
	bfs, _, err := BFSForest(g, defaultCfg(), Uniform(g.N()), map[int]int{0: 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Dist[2] == -1 {
		t.Error("near vertex should be reached within budget 3")
	}
	if bfs.Dist[9] != -1 {
		t.Error("far vertex should be unreached with budget 3")
	}
}

func TestOrientationSingleVertexAndEdgeless(t *testing.T) {
	g := graph.NewBuilder(3).Graph()
	orient, _, err := LowOutDegreeOrientation(g, defaultCfg(), Uniform(3), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if orient.MaxOutDegree() != 0 {
		t.Error("edgeless graph should have zero out-degrees")
	}
}

func TestOrientationPhaseBudgetTooSmall(t *testing.T) {
	// A clique with density bound 1: threshold 4 < degree 7, so nothing
	// peels until the budget runs out; edges stay unowned and the call
	// still returns cleanly.
	g := graph.Complete(8)
	orient, _, err := LowOutDegreeOrientation(g, defaultCfg(), Uniform(8), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	unowned := 0
	for _, o := range orient.Owner {
		if o == -1 {
			unowned++
		}
	}
	if unowned == 0 {
		t.Error("expected unowned edges with an impossible density bound")
	}
}

func TestDiameterCheckSingletons(t *testing.T) {
	g := graph.Path(6)
	marked, _, err := DiameterCheck(g, defaultCfg(), Singletons(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range marked {
		if m {
			t.Errorf("singleton cluster %d marked", v)
		}
	}
}

func TestElectLeadersSingletonClusters(t *testing.T) {
	g := graph.Cycle(5)
	leaders, _, err := ElectLeaders(g, defaultCfg(), Singletons(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if leaders.Leader[v] != v {
			t.Errorf("singleton %d elected %d", v, leaders.Leader[v])
		}
		if leaders.LeaderDegree[v] != 0 {
			t.Errorf("singleton %d cluster-degree %d, want 0", v, leaders.LeaderDegree[v])
		}
	}
}
