// Command bench is the repository's benchmark. It builds cmd/expandersvc,
// starts it on named fixture graphs, and drives four closed-loop workloads
// over loopback HTTP with at most two connections, checking every response:
//
//	cold     canonical query runs that miss the cache (simulator, routing, §2.3 phases)
//	hot      cache hits only, full and projected (serve's cache and encode path)
//	churn    POST /mutate batches back to back (overlay, incremental decomposition, swap)
//	rebuild  POST /reload of a 20000-vertex planar graph (load and decompose)
//
// Each run prints its metrics with units and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With -trace 1 the
// metrics are per layer: serve's /statz counters for the workload plus an
// in-process traced pass that times each layer's public calls. Run it from
// the repository root:
//
//	bash bench/run.sh -workload cold -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -seed 1 -out runs.jsonl          # all four, then the traced pass
//	bash bench/run.sh -compare base.jsonl cand.jsonl   # verdicts under BENCHMARK.json's bounds
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"expandergap/internal/graph"
)

// workload is one named load the benchmark drives.
type workload struct {
	name    string
	fixture string
	// tail is the latency percentile reported as tail_ms: p75 where at least
	// minBeyond samples lie beyond it in a 20-second run even at half the
	// throughput measured when the benchmark was defined, else the median.
	// Higher percentiles follow the shared host's stalls: between runs of
	// the same code, hot's p99 spread 26–210% and churn's p90 up to 28%.
	tail float64
	run  func(ctx context.Context, e env, cfg loopConfig) *outcome
}

var workloads = []workload{
	{name: "cold", fixture: "er800", tail: 0.5, run: runCold},
	{name: "hot", fixture: "er800", tail: 0.75, run: runHot},
	{name: "churn", fixture: "er800", tail: 0.75, run: runChurn},
	{name: "rebuild", fixture: "planar20k", tail: 0.5, run: runRebuild},
}

// setupRepeats is how many times a run starts the server to time set-up;
// the first start serves the workload.
const setupRepeats = 5

type options struct {
	root, work string
	seed       int64
	dur        time.Duration
	trace      int
	out        string
}

func main() {
	var o options
	name := flag.String("workload", "all", "workload to run: cold, hot, churn, rebuild, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated query, projection and churn trace")
	seconds := flag.Int("seconds", 20, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 = print per-layer metrics from the traced pass instead of end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "repository root; binaries, fixtures, server logs and spans go to its .bench_build")
	flag.StringVar(&o.out, "out", "", "append each run record to this file as a JSON line")
	compare := flag.Bool("compare", false, "compare two files of run records: -compare base.jsonl cand.jsonl")
	flag.Parse()
	o.dur = time.Duration(*seconds) * time.Second
	o.work = filepath.Join(o.root, ".bench_build")
	if *compare {
		os.Exit(runCompare(filepath.Join(o.root, "BENCHMARK.json"), flag.Args()))
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or trace %d\n", *name, o.trace)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, o, selected, *name == "all")
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose printed result has correct=false.
var errIncorrect = errors.New("output checks failed")

// run measures the selected workloads. Each prints an end-to-end record,
// except that a single workload with -trace 1 prints a per-layer record
// instead; with every workload selected, a per-layer record follows the
// four end-to-end ones.
func run(ctx context.Context, o options, selected []workload, all bool) error {
	if err := os.MkdirAll(filepath.Join(o.work, "fixtures"), 0o755); err != nil {
		return err
	}
	bin := filepath.Join(o.work, "expandersvc")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/expandersvc")
	build.Dir, build.Stdout, build.Stderr = o.root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building expandersvc: %w", err)
	}
	var counters serveCounters
	var layerRec *record
	correct := true
	for _, w := range selected {
		rec, c, err := runWorkload(ctx, o, w, bin)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		counters = counters.plus(c)
		correct = correct && rec.Correct
		if o.trace == 1 && !all {
			printRecord(os.Stdout, rec, "end-to-end (not the result of a -trace 1 run)", false)
			layerRec = rec
			continue
		}
		printRecord(os.Stdout, rec, "end-to-end", true)
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	if o.trace == 1 || all {
		rec := tracedRecord(o, counters, layerRec)
		correct = correct && rec.Correct
		printRecord(os.Stdout, rec, "per-layer", true)
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// runWorkload starts the server setupRepeats times to time set-up, drives
// the workload against the first start, and returns the end-to-end record
// and the serve counters the workload moved.
func runWorkload(ctx context.Context, o options, w workload, bin string) (*record, serveCounters, error) {
	fix, err := fixtureByName(w.fixture)
	if err != nil {
		return nil, serveCounters{}, err
	}
	g, path, err := fix.materialize(filepath.Join(o.work, "fixtures"))
	if err != nil {
		return nil, serveCounters{}, err
	}
	logf, err := os.Create(filepath.Join(o.work, "expandersvc-"+w.name+".log"))
	if err != nil {
		return nil, serveCounters{}, err
	}
	defer logf.Close()
	srv, setup, err := startServer(bin, path, logf)
	if err != nil {
		return nil, serveCounters{}, err
	}
	out, counters, err := drive(ctx, o, w, srv.url, g)
	srv.stop()
	if err != nil {
		return nil, serveCounters{}, err
	}
	// The other starts come after the workload, so the set-up samples span
	// the run rather than one moment of it.
	setups := []time.Duration{setup}
	for len(setups) < setupRepeats {
		s, d, err := startServer(bin, path, logf)
		if err != nil {
			return nil, serveCounters{}, err
		}
		s.kill()
		setups = append(setups, d)
	}
	return endToEnd(w, o.seed, setups, out), counters, nil
}

// drive runs the workload against the server at url and returns its
// outcome and the serve counters it moved.
func drive(ctx context.Context, o options, w workload, url string, g *graph.Graph) (*outcome, serveCounters, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	before, err := getStatz(client, url)
	if err != nil {
		return nil, serveCounters{}, err
	}
	out := w.run(ctx, env{url: url, client: client, g: g}, loopConfig{seed: o.seed, dur: o.dur})
	after, err := getStatz(client, url)
	if err != nil {
		return nil, serveCounters{}, err
	}
	return out, after.counters().minus(before.counters()), ctx.Err()
}

// endToEnd turns a workload's outcome into its end-to-end record.
func endToEnd(w workload, seed int64, setups []time.Duration, out *outcome) *record {
	lat := millis(out.lat)
	p50, _ := percentile(lat, 0.5)
	tail, beyond := percentile(lat, w.tail)
	if beyond < minBeyond {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d of %d samples lie beyond p%g\n", w.name, beyond, len(lat), 100*w.tail)
	}
	_, setup, _ := quartiles(millis(setups))
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
	}
	return &record{
		Workload: w.name, Seed: seed, Trace: 0,
		Correct: out.failed == 0 && len(lat) > 0, Attempt: max(out.attempted, 1), Failed: out.failed,
		Metrics: map[string]metric{
			"setup_s":   {setup / 1e3, "s"},
			"p50_ms":    {p50, "ms"},
			"tail_ms":   {tail, "ms"},
			"ops_per_s": {out.rate, "1/s"},
		},
		Samples: map[string]int{"setup_s": len(setups), "p50_ms": len(lat), "tail_ms": len(lat), "ops_per_s": len(lat)},
		Digests: out.digests,
	}
}

// tracedRecord runs the traced pass and returns the per-layer record: the
// pass's layer metrics plus the serve counters of the workloads just run.
// A single workload's record (wl) contributes its checks and digests.
func tracedRecord(o options, c serveCounters, wl *record) *record {
	serveFix, _ := fixtureByName("er800")
	rebuildFix, _ := fixtureByName("planar20k")
	p := tracedPass(serveFix, rebuildFix, filepath.Join(o.work, "fixtures"), filepath.Join(o.work, "spans.jsonl"))
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "bench: traced pass:", e)
	}
	addCounters(p, c)
	rec := &record{Workload: "all", Seed: o.seed, Trace: 1, Correct: p.failed == 0, Attempt: p.attempted, Failed: p.failed, Metrics: p.metrics}
	if wl != nil {
		rec.Workload, rec.Digests = wl.Workload, wl.Digests
		rec.Correct = rec.Correct && wl.Correct
		rec.Attempt += wl.Attempt
		rec.Failed += wl.Failed
	}
	return rec
}

// addCounters sets the serve layer's /statz metrics.
func addCounters(p *layerPass, c serveCounters) {
	var wait float64
	if c.runs > 0 {
		wait = c.queueWaitMs / float64(c.runs)
	}
	p.set("serve.queue_wait_ms_mean", wait, "ms")
	p.set("serve.cache_hits", float64(c.cacheHits), "requests")
	p.set("serve.coalesced", float64(c.coalesced), "requests")
	p.set("serve.rejected", float64(c.rejected), "requests")
	p.set("serve.errors", float64(c.errors), "requests")
}

// printRecord writes a human-readable table and, when asJSON is set, the
// record's result line.
func printRecord(w io.Writer, rec *record, kind string, asJSON bool) {
	fmt.Fprintf(w, "== %s seed %d: %s metrics, %d attempted, %d failed\n", rec.Workload, rec.Seed, kind, rec.Attempt, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		line := fmt.Sprintf("  %-52s %14.6g %s", n, m.Value, m.Unit)
		if s, ok := rec.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintln(w, line)
	}
	if asJSON {
		data, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{rec.Correct, rec.Attempt, rec.Failed, rec.Metrics})
		fmt.Fprintln(w, string(data))
	}
}

// appendRecord appends rec to path as one JSON line (no-op without a path).
func appendRecord(path string, rec *record) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(data, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runCompare implements -compare and returns the exit code.
func runCompare(specPath string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two record files: base.jsonl cand.jsonl")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sets [2][]record
	for i, f := range files {
		if sets[i], err = readRecords(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Printf("baseline %s, candidate %s: median [Q1, Q3] of each side\n", files[0], strings.TrimSpace(files[1]))
	if problems := compareRecords(os.Stdout, spec, sets[0], sets[1]); problems > 0 {
		fmt.Printf("%d problem(s)\n", problems)
		return 1
	}
	return 0
}
