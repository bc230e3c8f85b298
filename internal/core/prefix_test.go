package core_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"expandergap/internal/apps/ldd"
	"expandergap/internal/apps/matching"
	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
)

// prefixCase is one graph with one clustering to prepare a prefix for.
type prefixCase struct {
	name string
	g    *graph.Graph
	dec  *expander.Decomposition
}

// prefixCases returns a grid, an ER graph and a planar graph, each with its
// expander decomposition and with a single all-vertex cluster at φ = 1,
// whose §2.3 diameter bound is far below the graph's diameter so the
// diameter check marks vertices and resets them to singletons.
func prefixCases(t *testing.T) []prefixCase {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(6, 7)},
		{"er", graph.ErdosRenyi(40, 0.1, rng)},
		{"planar", graph.RandomPlanar(48, 0.6, rng)},
	}
	var cases []prefixCase
	for _, gr := range graphs {
		dec, err := expander.Decompose(gr.g, 0.3, expander.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		one := expander.FromAssignment(gr.g, make([]int, gr.g.N()), 0.5, 1)
		cases = append(cases,
			prefixCase{gr.name + "/decomposed", gr.g, dec},
			prefixCase{gr.name + "/one-cluster", gr.g, one})
	}
	return cases
}

// family is one application run through the framework: run calls it on g
// under cfg with the given core options and returns its full result.
type family struct {
	name string
	run  func(g *graph.Graph, cfg congest.Config, co core.Options) (any, error)
}

func families(weights func(n int) []int64) []family {
	return []family{
		{"matching", func(g *graph.Graph, cfg congest.Config, co core.Options) (any, error) {
			return matching.ApproximateMWM(g, matching.Options{Eps: 0.25, Cfg: cfg, Core: co})
		}},
		{"payload-mis", func(g *graph.Graph, cfg congest.Config, co core.Options) (any, error) {
			return maxis.ApproximateWeighted(g, weights(g.N()), maxis.Options{Eps: 0.25, Cfg: cfg, Core: co})
		}},
		{"ldd", func(g *graph.Graph, cfg congest.Config, co core.Options) (any, error) {
			return ldd.Decompose(g, ldd.Options{Eps: 0.25, Levels: 3, Cfg: cfg, Core: co})
		}},
		{"deterministic", func(g *graph.Graph, cfg congest.Config, co core.Options) (any, error) {
			co.Deterministic = true
			return matching.ApproximateMWM(g, matching.Options{Eps: 0.25, Cfg: cfg, Core: co})
		}},
	}
}

// solutionOf returns the framework Solution inside an application result.
func solutionOf(res any) *core.Solution {
	switch r := res.(type) {
	case *matching.Result:
		return r.Solution
	case *maxis.WeightedResult:
		return r.Solution
	case *ldd.Result:
		return r.Solution
	}
	return nil
}

// TestPrefixEquivalence runs every family with and without a prepared
// prefix: results, Solutions (Metrics, Phases, Leader, DiameterMarked,
// Clusters, TopologyLoss and the rest) and observer reports must be equal.
// The prefix is prepared under another seed than the runs use, which must
// not matter.
func TestPrefixEquivalence(t *testing.T) {
	weights := func(n int) []int64 {
		rng := rand.New(rand.NewSource(9))
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + rng.Int63n(50)
		}
		return w
	}
	marked := false
	for _, pc := range prefixCases(t) {
		pre, err := core.Prepare(pc.g, pc.dec, core.Options{Cfg: congest.Config{Seed: 99}})
		if err != nil {
			t.Fatalf("%s: Prepare: %v", pc.name, err)
		}
		for _, fam := range families(weights) {
			name := pc.name + "/" + fam.name
			liveObs, cachedObs := congest.NewObserver(), congest.NewObserver()
			live, err := fam.run(pc.g, congest.Config{Seed: 3, Obs: liveObs}, core.Options{Decomposition: pc.dec})
			if err != nil {
				t.Fatalf("%s live: %v", name, err)
			}
			cached, err := fam.run(pc.g, congest.Config{Seed: 3, Obs: cachedObs}, core.Options{Decomposition: pc.dec, Prefix: pre})
			if err != nil {
				t.Fatalf("%s with prefix: %v", name, err)
			}
			ls, cs := solutionOf(live), solutionOf(cached)
			if ls == nil || cs == nil {
				t.Fatalf("%s: result carries no Solution", name)
			}
			for _, field := range []string{"Metrics", "Phases", "Leader", "DiameterMarked", "Clusters", "TopologyLoss", "Values", "Undelivered", "Decomposition"} {
				a := reflect.ValueOf(ls).Elem().FieldByName(field).Interface()
				b := reflect.ValueOf(cs).Elem().FieldByName(field).Interface()
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: Solution.%s differs with a prefix:\nlive   %v\ncached %v", name, field, a, b)
				}
			}
			if !reflect.DeepEqual(live, cached) {
				t.Errorf("%s: result differs with a prefix", name)
			}
			if lr, cr := liveObs.Report(), cachedObs.Report(); !reflect.DeepEqual(lr, cr) {
				t.Errorf("%s: observer report differs with a prefix:\nlive\n%s\ncached\n%s", name, lr, cr)
			}
			if liveObs.Rounds() != cachedObs.Rounds() {
				t.Errorf("%s: observer rounds %d live, %d with a prefix", name, liveObs.Rounds(), cachedObs.Rounds())
			}
			for _, m := range ls.DiameterMarked {
				marked = marked || m
			}
		}
	}
	if !marked {
		t.Fatal("no case's diameter check marked a vertex; the reset path went untested")
	}
}

// TestPrefixMismatchErrors checks that a prefix refuses every input it was
// not prepared for, and that a faulty configuration cannot prepare one.
func TestPrefixMismatchErrors(t *testing.T) {
	g := graph.Grid(6, 6)
	dec, err := expander.Decompose(g, 0.3, expander.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Prepare(g, dec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := graph.Grid(6, 6)
	otherDec, err := expander.Decompose(other, 0.3, expander.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameContent := expander.FromAssignment(g, append([]int(nil), dec.Assignment...), dec.Eps, dec.Phi)
	cfg := congest.Config{Seed: 1}
	run := func(g *graph.Graph, mo matching.Options) error {
		mo.Eps = 0.25
		_, err := matching.ApproximateMWM(g, mo)
		return err
	}
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"another graph", run(other, matching.Options{Cfg: cfg, Core: core.Options{Decomposition: otherDec, Prefix: pre}}), "another graph"},
		{"another decomposition", run(g, matching.Options{Cfg: cfg, Core: core.Options{Decomposition: sameContent, Prefix: pre}}), "another decomposition"},
		{"no decomposition", run(g, matching.Options{Cfg: cfg, Core: core.Options{Prefix: pre}}), "another decomposition"},
		{"another density", run(g, matching.Options{Cfg: cfg, Core: core.Options{Density: 4, Decomposition: dec, Prefix: pre}}), "density"},
		{"another round cap", run(g, matching.Options{Cfg: congest.Config{Seed: 1, MaxRounds: 1 << 19}, Core: core.Options{Decomposition: dec, Prefix: pre}}), "round cap"},
		{"faults", run(g, matching.Options{Cfg: congest.Config{Seed: 1, FaultRate: 0.1}, Core: core.Options{Decomposition: dec, Prefix: pre}}), "fault rate"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error naming %q", tc.name, tc.err, tc.want)
		}
	}
	if _, err := core.Prepare(g, dec, core.Options{Cfg: congest.Config{FaultRate: 0.2}}); err == nil {
		t.Error("Prepare accepted a fault rate")
	}
	if _, err := core.Prepare(g, nil, core.Options{}); err == nil {
		t.Error("Prepare accepted a nil decomposition")
	}
}
