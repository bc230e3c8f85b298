package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted and the number
// of samples strictly beyond its rank.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quartiles returns Q1, the median and Q3 of xs, computed as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method); with one
// value all three are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// metric is one named measurement as the benchmark prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one benchmark run: the printed result plus what -compare needs.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Correct  bool              `json:"correct"`
	Attempt  int               `json:"attempted"`
	Failed   int               `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
	// Samples gives the sample count behind each latency metric.
	Samples map[string]int    `json:"samples,omitempty"`
	Digests map[string]string `json:"digests,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads a file of run records, one JSON object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of a comparison between a baseline set of runs and a candidate.
const (
	verdictBetter     = "better"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges candidate runs of one metric against baseline runs. It is
// worse when the candidate's median is worse by more than bound; unresolved
// when either side's interquartile spread exceeds bound, unless every
// candidate run beats every baseline run; better when the candidate wins at
// least nine tenths of the index-paired runs and its median gain exceeds the
// baseline's own spread; otherwise no worse.
func verdict(base, cand []float64, lowerIsBetter bool, bound float64) string {
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	worse := func(a, b float64) bool { return sign*(a-b) > 0 } // a is worse than b
	allBetter := true
	for _, c := range cand {
		for _, b := range base {
			if !worse(b, c) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return verdictBetter
	}
	if spread(base) > bound || spread(cand) > bound {
		return verdictUnresolved
	}
	_, mb, _ := quartiles(base)
	_, mc, _ := quartiles(cand)
	change := sign * (mc - mb) / math.Abs(mb) // > 0: the candidate is worse
	if change > bound {
		return verdictWorse
	}
	pairs, wins := min(len(base), len(cand)), 0
	for i := 0; i < pairs; i++ {
		if worse(base[i], cand[i]) {
			wins++
		}
	}
	if -change > spread(base) && float64(wins) >= 0.9*float64(pairs) {
		return verdictBetter
	}
	return verdictNoWorse
}

// compareRecords compares two sets of runs workload by workload: each
// end-to-end metric gets a verdict under its bound, count metrics must
// repeat exactly, and runs of the same seed must agree on every result
// digest they share. It writes a report to w and returns the number of
// problems found (worse verdicts, differing counts or digests).
func compareRecords(w io.Writer, spec *benchSpec, base, cand []record) int {
	bounds := map[string]specMetric{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	type group struct{ base, cand []record }
	groups := map[string]*group{}
	var keys []string
	add := func(r record, isBase bool) {
		k := fmt.Sprintf("%s trace=%d", r.Workload, r.Trace)
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
			keys = append(keys, k)
		}
		if isBase {
			g.base = append(g.base, r)
		} else {
			g.cand = append(g.cand, r)
		}
	}
	for _, r := range base {
		add(r, true)
	}
	for _, r := range cand {
		add(r, false)
	}
	sort.Strings(keys)
	problems := 0
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(w, "%s: %d baseline runs, %d candidate runs\n", k, len(g.base), len(g.cand))
		if len(g.base) == 0 || len(g.cand) == 0 {
			fmt.Fprintf(w, "  %s\n", verdictUnresolved)
			continue
		}
		for _, r := range append(append([]record(nil), g.base...), g.cand...) {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "  run with seed %d was not correct (%d of %d failed)\n", r.Seed, r.Failed, r.Attempt)
				problems++
			}
		}
		var names []string
		for name := range g.base[0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bv, cv := values(g.base, name), values(g.cand, name)
			if len(cv) == 0 {
				fmt.Fprintf(w, "  %-48s missing from the candidate\n", name)
				problems++
				continue
			}
			unit := g.base[0].Metrics[name].Unit
			b1, bm, b3 := quartiles(bv)
			c1, cm, c3 := quartiles(cv)
			line := fmt.Sprintf("  %-48s %12.4g [%.4g, %.4g]  %12.4g [%.4g, %.4g] %-8s", name, bm, b1, b3, cm, c1, c3, unit)
			switch sm, ok := bounds[name]; {
			case ok:
				v := verdict(bv, cv, sm.Better == "lower", sm.Bound)
				if v == verdictWorse {
					problems++
				}
				line += fmt.Sprintf(" %+6.1f%%  %s (bound %.0f%%)", 100*(cm-bm)/math.Abs(bm), v, 100*sm.Bound)
			case unit == "count":
				if !allEqual(append(bv, cv...)) {
					line += "  counts differ between runs"
					problems++
				}
			}
			fmt.Fprintln(w, line)
		}
		problems += compareDigests(w, g.base, g.cand)
	}
	return problems
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// compareDigests checks that runs with the same seed agree on the digest of
// every key both answered, and returns the number of disagreements.
func compareDigests(w io.Writer, base, cand []record) int {
	bySeed := map[int64]map[string]string{}
	for _, r := range base {
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = map[string]string{}
		}
		for k, d := range r.Digests {
			bySeed[r.Seed][k] = d
		}
	}
	shared, differ := 0, 0
	for _, r := range cand {
		for k, d := range r.Digests {
			if bd, ok := bySeed[r.Seed][k]; ok {
				shared++
				if bd != d {
					differ++
					fmt.Fprintf(w, "  digest of %s (seed %d) differs\n", k, r.Seed)
				}
			}
		}
	}
	fmt.Fprintf(w, "  result digests: %d shared, %d differ\n", shared, differ)
	return differ
}
