package experiments

import (
	"fmt"
	"math/rand"

	"expandergap/internal/congest"
	"expandergap/internal/expander"
)

// E16DecomposerComparison runs both decomposition constructions — the
// sequential recursive sparse cut (the framework's default) and the
// distributed MPX+refine pipeline — side by side on planar families,
// reporting cut fractions, cluster structure, and message-passing rounds
// where applicable.
func E16DecomposerComparison(sizes []int, eps float64, seed int64) Outcome {
	t := &Table{
		ID:      "E16",
		Title:   "decomposer comparison: sequential vs MPX+refine",
		Columns: []string{"family", "n", "decomposer", "cut-frac", "clusters", "connected", "rounds"},
	}
	rng := rand.New(rand.NewSource(seed))
	allConnected := true
	cutsBounded := true
	for _, fam := range planarFamilies()[:2] {
		for _, n := range sizes {
			g := fam.gen(n, rng)
			type result struct {
				name   string
				dec    *expander.Decomposition
				rounds int
			}
			var results []result

			seq, err := expander.Decompose(g, eps, expander.Options{Seed: seed})
			if err != nil {
				panic(fmt.Sprintf("E16 seq: %v", err))
			}
			results = append(results, result{"sequential", seq, 0})

			mpx, m1, err := expander.DistributedDecompose(g, congest.Config{Seed: seed}, eps)
			if err != nil {
				panic(fmt.Sprintf("E16 mpx: %v", err))
			}
			results = append(results, result{"mpx+refine", mpx, m1.Rounds})

			for _, r := range results {
				rep := r.dec.Verify(g, rng)
				allConnected = allConnected && rep.Connected
				// The randomized construction gets 2× headroom on ε.
				limit := eps
				if r.name != "sequential" {
					limit = 2 * eps
				}
				cutsBounded = cutsBounded && rep.CutFraction <= limit+1e-9
				t.AddRow(fam.name, g.N(), r.name, rep.CutFraction,
					len(r.dec.Clusters), rep.Connected, r.rounds)
			}
		}
	}
	return Outcome{
		Table: t,
		Checks: []Check{
			{Name: "every decomposer produces connected clusters", OK: allConnected},
			{Name: "cut fractions within budget (2× for randomized)", OK: cutsBounded},
		},
	}
}
