package integration

import (
	"testing"

	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
	"expandergap/internal/solvers"
)

// Larger-scale smoke test: a 1024-vertex grid through the deterministic
// track (tree routing keeps the round count manageable at this size). This
// is the largest end-to-end run in the suite; skipped with -short.
func TestLargeGridDeterministicTrack(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke test")
	}
	g := graph.Grid(32, 32)
	res, err := maxis.Approximate(g, maxis.Options{
		Eps:  0.3,
		Cfg:  congest.Config{Seed: 31},
		Core: core.Options{Deterministic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !solvers.IsIndependentSet(g, res.Set) {
		t.Fatal("not independent at scale")
	}
	// A 32x32 grid's optimum is 512 (checkerboard); the greedy fallback at
	// the leader plus decomposition loss must stay above (1-eps)-ish.
	if len(res.Set) < 410 {
		t.Errorf("large-grid IS = %d, want >= 410 (opt 512)", len(res.Set))
	}
	if res.Solution.Metrics.MaxWordsPerMsg > 8 {
		t.Errorf("CONGEST cap exceeded: %d words", res.Solution.Metrics.MaxWordsPerMsg)
	}
	for v := 0; v < g.N(); v++ {
		if res.Solution.Undelivered[v] {
			t.Fatalf("vertex %d undelivered at scale", v)
		}
	}
}
