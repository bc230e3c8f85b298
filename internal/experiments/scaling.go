package experiments

import (
	"fmt"
	"math"

	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/graph"
)

// E15RoundScaling measures how the framework's round count scales with n on
// grids — the empirical counterpart of Theorem 2.6's construction/routing
// time. This reproduction's gather step is bounded by the hitting-time cap
// Θ(m·D) = Θ(n^1.5) on grids (the poly-log regime needs the full
// Chang–Saranurak machinery; see EXPERIMENTS.md), so the shape check fits
// the growth exponent of total rounds and requires it to stay below 2.2 —
// well under a quadratic-blowup regression — and requires message sizes to
// stay constant (the CONGEST invariant).
func E15RoundScaling(sizes []int, eps float64, seed int64, obs *congest.Observer) Outcome {
	t := &Table{
		ID:      "E15",
		Title:   "framework round scaling on grids (Thm 2.6 time bounds, measured)",
		Columns: []string{"n", "rounds", "gather-rounds", "messages", "bits/edge/round", "max-words"},
	}
	type point struct {
		n      float64
		rounds float64
	}
	var pts []point
	maxWordsOK := true
	for _, n := range sizes {
		side := int(math.Sqrt(float64(n)))
		g := graph.Grid(side, side)
		sol, err := core.Run(g, core.Options{
			Eps: eps,
			Cfg: congest.Config{Seed: seed, Obs: obs},
		}, func(cluster *graph.Graph, toOld []int) map[int]int64 {
			out := make(map[int]int64)
			for _, v := range toOld {
				out[v] = 1
			}
			return out
		})
		if err != nil {
			panic(fmt.Sprintf("E15: %v", err))
		}
		m := sol.Metrics
		bitsPerEdgeRound := float64(m.TotalBits(g.N())) / float64(g.M()) / float64(m.Rounds)
		maxWordsOK = maxWordsOK && m.MaxWordsPerMsg <= 8
		pts = append(pts, point{n: float64(g.N()), rounds: float64(m.Rounds)})
		t.AddRow(g.N(), m.Rounds, sol.Phases["gather-solve-disseminate"], m.Messages,
			bitsPerEdgeRound, m.MaxWordsPerMsg)
	}
	// Least-squares fit of log rounds = a + b·log n.
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x, y := math.Log(p.n), math.Log(p.rounds)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	k := float64(len(pts))
	exponent := (k*sxy - sx*sy) / (k*sxx - sx*sx)
	t.Notes = append(t.Notes, fmt.Sprintf("fitted growth exponent: rounds ~ n^%.2f", exponent))
	return Outcome{
		Table: t,
		Checks: []Check{
			{Name: "round growth exponent ≤ 2.2 (hitting-time regime, not quadratic blowup)",
				OK: exponent <= 2.2, Info: fmt.Sprintf("%.2f", exponent)},
			{Name: "message sizes constant (≤ 8 words) at every n", OK: maxWordsOK},
		},
	}
}
