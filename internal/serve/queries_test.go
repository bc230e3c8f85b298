package serve

import (
	"math/rand"
	"slices"
	"testing"

	"expandergap/internal/expander"
	"expandergap/internal/graph"
	"expandergap/internal/primitives"
)

// naiveProjectMIS is the linear-scan membership projection: for each
// requested vertex, scan the whole set.
func naiveProjectMIS(set, vertices []int) []VertexAnswer {
	sel := append([]int(nil), vertices...)
	slices.Sort(sel)
	sel = slices.Compact(sel)
	out := make([]VertexAnswer, 0, len(sel))
	for _, v := range sel {
		var val int64
		for _, m := range set {
			if m == v {
				val = 1
				break
			}
		}
		out = append(out, VertexAnswer{V: v, Value: val})
	}
	return out
}

// naiveMISStats counts set members per cluster by scanning the whole set once
// per cluster.
func naiveMISStats(snap *Snapshot, set []int) []int {
	out := make([]int, len(snap.Dec.Clusters))
	for id := range snap.Dec.Clusters {
		for _, v := range set {
			if snap.Dec.Assignment[v] == id {
				out[id]++
			}
		}
	}
	return out
}

// naiveLabelStats counts each cluster's distinct labels with a map of its
// own.
func naiveLabelStats(snap *Snapshot, labels []int) []int {
	out := make([]int, len(snap.Dec.Clusters))
	for id, members := range snap.Dec.Clusters {
		seen := map[int]bool{}
		for _, v := range members {
			seen[labels[v]] = true
		}
		out[id] = len(seen)
	}
	return out
}

// naiveTreeParents runs a map-backed BFS per cluster from its leader.
func naiveTreeParents(snap *Snapshot) []int {
	parent := make([]int, snap.G.N())
	for v := range parent {
		parent[v] = -1
	}
	for _, members := range snap.Dec.Clusters {
		root := snap.Leader[members[0]]
		cid := snap.Dec.Assignment[root]
		queue := []int{root}
		seen := map[int]bool{root: true}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range snap.G.Neighbors(u) {
				if snap.Dec.Assignment[w] == cid && !seen[w] {
					seen[w] = true
					parent[w] = u
					queue = append(queue, w)
				}
			}
		}
	}
	return parent
}

// TestPerResultHelpersAt100k checks the mis projection, the per-cluster mis
// counts, the per-cluster distinct clustering labels and the deterministic
// walkroute tree parents against naive references on a 100000-vertex grid
// cut into 1000 blocks, with a random third of the vertices in the set.
func TestPerResultHelpersAt100k(t *testing.T) {
	const rows, cols, block = 250, 400, 10
	g := graph.Grid(rows, cols)
	n := g.N()
	assign := make(primitives.ClusterAssignment, n)
	for v := range assign {
		assign[v] = (v/cols/block)*(cols/block) + v%cols/block
	}
	dec := expander.FromAssignment(g, assign, 0.1, 0.1)
	leader := make([]int, n)
	for _, members := range dec.Clusters {
		for _, v := range members {
			leader[v] = members[len(members)/2]
		}
	}
	snap := &Snapshot{G: g, Dec: dec, Leader: leader}

	rng := rand.New(rand.NewSource(1))
	res := &Result{Family: "mis"}
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			res.Set = append(res.Set, v) // ascending, as maxis.Approximate builds it
		}
	}
	res.SetSize = len(res.Set)
	sel := make([]int, 2000)
	for i := range sel {
		sel[i] = rng.Intn(n)
	}
	sel = append(sel, res.Set[0], res.Set[len(res.Set)-1], 0, n-1, sel[7])

	if got, want := res.project(sel), naiveProjectMIS(res.Set, sel); !slices.Equal(got, want) {
		t.Errorf("mis projection differs from the linear scan (%d vs %d entries)", len(got), len(want))
	}

	stats := perClusterStats(snap, res)
	want := naiveMISStats(snap, res.Set)
	if len(stats) != len(want) {
		t.Fatalf("%d cluster stats, want %d", len(stats), len(want))
	}
	total := 0
	for id, st := range stats {
		if st.Stat != want[id] || st.ID != id || st.Size != len(dec.Clusters[id]) {
			t.Fatalf("cluster %d: %+v, want stat %d size %d", id, st, want[id], len(dec.Clusters[id]))
		}
		total += st.Stat
	}
	if total != len(res.Set) {
		t.Errorf("cluster counts sum to %d, set has %d", total, len(res.Set))
	}

	// Labels mix shared values (one per 7-vertex run, which crosses block
	// borders and so reaches several clusters) with per-vertex negative
	// ones, as ldd assigns to undelivered vertices.
	lres := &Result{Family: "clustering", Labels: make([]int, n)}
	for v := range lres.Labels {
		lres.Labels[v] = v / 7
		if rng.Intn(5) == 0 {
			lres.Labels[v] = -(v + 1)
		}
	}
	wantLabels := naiveLabelStats(snap, lres.Labels)
	for id, st := range perClusterStats(snap, lres) {
		if st.Stat != wantLabels[id] {
			t.Fatalf("cluster %d: %d distinct labels, want %d", id, st.Stat, wantLabels[id])
		}
	}

	parent, err := treeParents(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(parent, naiveTreeParents(snap)) {
		t.Error("tree parents differ from the map-backed BFS")
	}
	for v, p := range parent {
		if (p < 0) != (leader[v] == v) {
			t.Fatalf("vertex %d: parent %d, leader %d", v, p, leader[v])
		}
	}
}
