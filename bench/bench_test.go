package main

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"expandergap/internal/serve"
)

// TestSmoke runs every workload for a few operations against an
// in-process server on a tiny grid, then the traced pass, and checks that
// each emits exactly the metrics BENCHMARK.json lists, with their units.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	fix, err := fixtureByName("grid6")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, path, err := fix.materialize(dir)
	if err != nil {
		t.Fatal(err)
	}
	limits := map[string]int{"cold": 2, "hot": 20, "churn": 3, "rebuild": 2}
	var counters serveCounters
	for _, w := range workloads {
		srv, err := serve.New(serve.Config{Spec: serve.Spec{Path: path, Mmap: true, DecWorkers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		client := newClient()
		before, err := getStatz(client, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		out := w.run(context.Background(), env{url: ts.URL, client: client, g: g}, loopConfig{seed: 1, dur: time.Minute, limit: limits[w.name]})
		after, err := getStatz(client, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		counters = counters.plus(after.counters().minus(before.counters()))
		client.CloseIdleConnections()
		ts.Close()
		srv.Close()
		if out.failed > 0 || len(out.lat) == 0 {
			t.Errorf("%s: %d of %d failed, %d measured: %v", w.name, out.failed, out.attempted, len(out.lat), out.errs)
		}
		rec := endToEnd(w, 1, []time.Duration{time.Millisecond}, out)
		checkNames(t, w.name, rec.Metrics, spec.EndToEnd)
	}
	p := tracedPass(fix, fix, dir, filepath.Join(dir, "spans.jsonl"))
	if p.failed > 0 {
		t.Errorf("traced pass: %d of %d checks failed: %v", p.failed, p.attempted, p.errs)
	}
	addCounters(p, counters)
	checkNames(t, "traced pass", p.metrics, spec.PerLayer)
}

func checkNames(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not emitted", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !listed[name] {
			t.Errorf("%s: metric %s is emitted but not listed in BENCHMARK.json", what, name)
		}
	}
}
