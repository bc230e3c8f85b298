package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.99, 99, 1},
		{20, 0.5, 10, 10}, // the smallest sample whose median has ten beyond it
		{19, 0.5, 10, 9},
		{1000, 0.99, 990, 10},
		{999, 0.99, 990, 9},
		{1, 0.9, 1, 0},
	} {
		got, beyond := percentile(seq(c.n), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %g) = %g with %d beyond, want %g with %d", c.n, c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name  string
		cand  []float64
		lower bool
		want  string
	}{
		{"same", []float64{101, 100, 99, 102, 100}, true, verdictNoWorse},
		{"slightly worse, within bound", []float64{105, 106, 104, 105, 106}, true, verdictNoWorse},
		{"worse past the bound", []float64{120, 121, 119, 122, 120}, true, verdictWorse},
		{"every run better", []float64{90, 91, 89, 92, 90}, true, verdictBetter},
		{"higher is better, lower values", []float64{80, 81, 79, 82, 80}, false, verdictWorse},
		{"higher is better, every run higher", []float64{110, 111, 109, 112, 110}, false, verdictBetter},
		{"candidate too noisy", []float64{60, 140, 100, 80, 120}, true, verdictUnresolved},
	} {
		if got := verdict(base, c.cand, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict([]float64{60, 140, 100, 80, 120}, base, true, 0.1); got != verdictUnresolved {
		t.Errorf("noisy baseline: verdict = %q, want %q", got, verdictUnresolved)
	}
}

func TestCompareRecords(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	run := func(workload string, seed int64, p50, rounds float64, digest string) record {
		return record{
			Workload: workload, Seed: seed, Correct: true, Attempt: 10,
			Metrics: map[string]metric{"p50_ms": {p50, "ms"}, "rounds.x": {rounds, "count"}},
			Digests: map[string]string{"k": digest},
		}
	}
	base := []record{run("cold", 1, 100, 7, "a"), run("cold", 2, 101, 7, "b"), run("cold", 3, 99, 7, "c")}

	var out strings.Builder
	same := []record{run("cold", 1, 100, 7, "a"), run("cold", 2, 100, 7, "b"), run("cold", 3, 102, 7, "c")}
	if n := compareRecords(&out, spec, base, same); n != 0 {
		t.Fatalf("identical sets: %d problems\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), verdictNoWorse) || !strings.Contains(out.String(), "3 shared, 0 differ") {
		t.Fatalf("report lacks the verdict or the digest count:\n%s", out.String())
	}

	out.Reset()
	bad := []record{run("cold", 1, 130, 8, "x"), run("cold", 2, 131, 7, "b"), run("cold", 3, 129, 7, "c")}
	if n := compareRecords(&out, spec, base, bad); n != 3 {
		t.Fatalf("worse median, differing count and digest: %d problems, want 3\n%s", n, out.String())
	}

	out.Reset()
	noisy := []record{run("cold", 1, 60, 7, "a"), run("cold", 2, 140, 7, "b"), run("cold", 3, 100, 7, "c")}
	if n := compareRecords(&out, spec, base, noisy); n != 0 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Fatalf("noisy candidate: %d problems, want 0 and an unresolved verdict\n%s", n, out.String())
	}

	out.Reset()
	if compareRecords(&out, spec, base, []record{run("hot", 1, 1, 7, "a")}) != 0 || !strings.Contains(out.String(), "0 baseline runs") {
		t.Fatalf("a workload on one side only must be reported, not compared:\n%s", out.String())
	}
}
