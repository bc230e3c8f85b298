package primitives

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

func defaultCfg() congest.Config { return congest.Config{Seed: 7} }

// MaxOutDegree returns the maximum out-degree of the orientation.
func (o Orientation) MaxOutDegree() int {
	max := 0
	for _, d := range o.OutDegree {
		if d > max {
			max = d
		}
	}
	return max
}

func TestClusterAssignmentHelpers(t *testing.T) {
	s := Singletons(4)
	if len(s.Clusters()) != 4 {
		t.Error("singletons should have 4 clusters")
	}
	u := Uniform(4)
	if len(u.Clusters()) != 1 {
		t.Error("uniform should have 1 cluster")
	}
	if err := u.Validate(graph.Path(4)); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	if err := u.Validate(graph.Path(5)); err == nil {
		t.Error("wrong-size assignment accepted")
	}
	bad := ClusterAssignment{0, -1, 0, 0}
	if err := bad.Validate(graph.Path(4)); err == nil {
		t.Error("negative cluster ID accepted")
	}
}

func TestBFSForestWholeGraph(t *testing.T) {
	g := graph.Grid(4, 4)
	cluster := Uniform(g.N())
	bfs, metrics, err := BFSForest(g, defaultCfg(), cluster, map[int]int{0: 0}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	wantDist, _ := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if bfs.Dist[v] != wantDist[v] {
			t.Errorf("dist[%d] = %d, want %d", v, bfs.Dist[v], wantDist[v])
		}
		if bfs.Root[v] != 0 {
			t.Errorf("root[%d] = %d, want 0", v, bfs.Root[v])
		}
		if v != 0 && bfs.Parent[v] >= 0 {
			if !g.HasEdge(v, bfs.Parent[v]) {
				t.Errorf("parent edge {%d,%d} missing", v, bfs.Parent[v])
			}
			if wantDist[bfs.Parent[v]] != wantDist[v]-1 {
				t.Errorf("parent of %d not one level up", v)
			}
		}
	}
	if metrics.Rounds == 0 {
		t.Error("metrics should record rounds")
	}
}

func TestBFSForestRespectsClusters(t *testing.T) {
	// Path 0-1-2-3-4-5 split into clusters {0,1,2} and {3,4,5}.
	g := graph.Path(6)
	cluster := ClusterAssignment{0, 0, 0, 1, 1, 1}
	bfs, _, err := BFSForest(g, defaultCfg(), cluster, map[int]int{0: 0, 1: 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct{ v, dist, root int }{
		{0, 0, 0}, {1, 1, 0}, {2, 2, 0},
		{3, 2, 5}, {4, 1, 5}, {5, 0, 5},
	}
	for _, w := range wants {
		if bfs.Dist[w.v] != w.dist || bfs.Root[w.v] != w.root {
			t.Errorf("vertex %d: dist=%d root=%d, want dist=%d root=%d",
				w.v, bfs.Dist[w.v], bfs.Root[w.v], w.dist, w.root)
		}
	}
}

func TestBFSForestUnrootedClusterUnreached(t *testing.T) {
	g := graph.Path(4)
	cluster := ClusterAssignment{0, 0, 1, 1}
	bfs, _, err := BFSForest(g, defaultCfg(), cluster, map[int]int{0: 0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Dist[2] != -1 || bfs.Dist[3] != -1 {
		t.Error("cluster without root should stay unreached")
	}
}

func TestElectLeadersPicksMaxDegree(t *testing.T) {
	g := graph.Star(5) // center 0 has degree 5
	leaders, _, err := ElectLeaders(g, defaultCfg(), Uniform(g.N()), g.N())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if leaders.Leader[v] != 0 {
			t.Errorf("vertex %d elected %d, want 0", v, leaders.Leader[v])
		}
		if leaders.LeaderDegree[v] != 5 {
			t.Errorf("leader degree = %d, want 5", leaders.LeaderDegree[v])
		}
	}
}

func TestElectLeadersTieBreaksByID(t *testing.T) {
	g := graph.Cycle(6) // all degree 2: leader should be max ID 5
	leaders, _, err := ElectLeaders(g, defaultCfg(), Uniform(g.N()), g.N())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if leaders.Leader[v] != 5 {
			t.Errorf("vertex %d elected %d, want 5", v, leaders.Leader[v])
		}
	}
}

func TestElectLeadersPerCluster(t *testing.T) {
	// Two disjoint stars within one graph, separate clusters.
	g := graph.Disjoint(graph.Star(3), graph.Star(4))
	cluster := ClusterAssignment{0, 0, 0, 0, 1, 1, 1, 1, 1}
	leaders, _, err := ElectLeaders(g, defaultCfg(), cluster, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if leaders.Leader[1] != 0 {
		t.Errorf("first star leader = %d, want 0", leaders.Leader[1])
	}
	if leaders.Leader[5] != 4 {
		t.Errorf("second star leader = %d, want 4", leaders.Leader[5])
	}
	// Cluster degree counts only same-cluster neighbors.
	if leaders.LeaderDegree[1] != 3 || leaders.LeaderDegree[5] != 4 {
		t.Errorf("leader degrees = %d,%d; want 3,4", leaders.LeaderDegree[1], leaders.LeaderDegree[5])
	}
}

func TestLowOutDegreeOrientationPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomMaximalPlanar(60, rng)
	// Planar density < 3.
	orient, _, err := LowOutDegreeOrientation(g, defaultCfg(), Uniform(g.N()), 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := orient.MaxOutDegree(); got > 12 {
		t.Errorf("max out-degree %d exceeds 4d = 12", got)
	}
	for idx, owner := range orient.Owner {
		if owner == -1 {
			t.Errorf("edge %d unowned", idx)
		}
	}
	// Sum of out-degrees equals number of edges.
	total := 0
	for _, d := range orient.OutDegree {
		total += d
	}
	if total != g.M() {
		t.Errorf("out-degrees sum to %d, want %d", total, g.M())
	}
}

func TestLowOutDegreeOrientationRespectsClusters(t *testing.T) {
	g := graph.Path(4)
	cluster := ClusterAssignment{0, 0, 1, 1}
	orient, _, err := LowOutDegreeOrientation(g, defaultCfg(), cluster, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	midIdx, _ := g.EdgeIndex(1, 2)
	if orient.Owner[midIdx] != -1 {
		t.Error("inter-cluster edge must stay unowned")
	}
	e01, _ := g.EdgeIndex(0, 1)
	e23, _ := g.EdgeIndex(2, 3)
	if orient.Owner[e01] == -1 || orient.Owner[e23] == -1 {
		t.Error("intra-cluster edges must be owned")
	}
}

func TestLowOutDegreeOrientationBadDensity(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := LowOutDegreeOrientation(g, defaultCfg(), Uniform(3), 0, 5); err == nil {
		t.Error("density 0 should error")
	}
}

func TestDiameterCheckSmallDiameterUnmarked(t *testing.T) {
	g := graph.Complete(6) // diameter 1
	marked, _, err := DiameterCheck(g, defaultCfg(), Uniform(g.N()), 2)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range marked {
		if m {
			t.Errorf("vertex %d marked despite diameter <= b", v)
		}
	}
}

func TestDiameterCheckLargeDiameterAllMarked(t *testing.T) {
	g := graph.Path(20) // diameter 19 >= 2b+1 for b = 2
	marked, _, err := DiameterCheck(g, defaultCfg(), Uniform(g.N()), 2)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range marked {
		if !m {
			t.Errorf("vertex %d unmarked despite diameter >= 2b+1", v)
		}
	}
}

func TestDiameterCheckPerCluster(t *testing.T) {
	// One tight cluster (triangle) and one long path cluster.
	g := graph.Disjoint(graph.Complete(3), graph.Path(15))
	cluster := make(ClusterAssignment, g.N())
	for v := 3; v < g.N(); v++ {
		cluster[v] = 1
	}
	marked, _, err := DiameterCheck(g, defaultCfg(), cluster, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if marked[v] {
			t.Errorf("triangle vertex %d should be unmarked", v)
		}
	}
	for v := 3; v < g.N(); v++ {
		if !marked[v] {
			t.Errorf("path vertex %d should be marked", v)
		}
	}
}

func TestDiameterCheckBoundaryRespectsClusters(t *testing.T) {
	// Two adjacent clusters: marks must not leak across the cut.
	g := graph.Path(24)
	cluster := make(ClusterAssignment, g.N())
	for v := 4; v < g.N(); v++ {
		cluster[v] = 1 // long sub-path: will be marked for small b
	}
	marked, _, err := DiameterCheck(g, defaultCfg(), cluster, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if marked[v] {
			t.Errorf("short cluster vertex %d wrongly marked", v)
		}
	}
	for v := 4; v < g.N(); v++ {
		if !marked[v] {
			t.Errorf("long cluster vertex %d should be marked", v)
		}
	}
}

// The §2.3 diameter check and leader election run schedules fixed by their
// bound (3b+5 rounds, and at most budget+2), so a bound whose schedule cannot
// fit the simulator's round limit fails before the first round instead of
// stepping until the limit, naming both numbers. A limit that fits exactly
// runs and matches the default cap. On a 12-vertex path both bounds are
// short of the diameter, so the check marks vertices and the election still
// sends in its output round.
func TestFixedSchedulesFailFastOverRoundLimit(t *testing.T) {
	g := graph.Path(12)
	cluster := Uniform(g.N())
	phases := []struct {
		name string
		need int
		run  func(cfg congest.Config) (any, congest.Metrics, error)
	}{
		{"diameter-check", 3*3 + 5, func(cfg congest.Config) (any, congest.Metrics, error) {
			return DiameterCheck(g, cfg, cluster, 3)
		}},
		{"elect-leaders", 3 + 2, func(cfg congest.Config) (any, congest.Metrics, error) {
			return ElectLeaders(g, cfg, cluster, 3)
		}},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			want, wantM, err := ph.run(congest.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if wantM.Rounds != ph.need {
				t.Fatalf("default cap: %d rounds, want %d", wantM.Rounds, ph.need)
			}
			_, m, err := ph.run(congest.Config{Seed: 1, MaxRounds: ph.need - 1})
			if !errors.Is(err, congest.ErrMaxRounds) {
				t.Fatalf("err = %v, want ErrMaxRounds", err)
			}
			for _, n := range []int{ph.need, ph.need - 1} {
				if !strings.Contains(err.Error(), strconv.Itoa(n)) {
					t.Errorf("error %q does not name %d", err, n)
				}
			}
			if m != (congest.Metrics{}) {
				t.Errorf("stepped before failing: %+v", m)
			}
			got, m, err := ph.run(congest.Config{Seed: 1, MaxRounds: ph.need})
			if err != nil {
				t.Fatalf("exact fit refused: %v", err)
			}
			if !reflect.DeepEqual(got, want) || m != wantM {
				t.Errorf("exact fit: %v %+v, want %v %+v", got, m, want, wantM)
			}
		})
	}
}
