package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"expandergap/internal/apps/ldd"
	"expandergap/internal/apps/matching"
	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
	"expandergap/internal/routing"
	"expandergap/internal/serve"
)

// span is one timed interval of the traced pass: a layer call the benchmark
// makes, or a stretch of simulator rounds spent in one observer phase.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level call
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// tracer keeps the pass's spans in memory until it writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, at time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: at.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, at time.Time) { t.spans[id].End = at.Sub(t.t0).Nanoseconds() }

func (t *tracer) dur(id int) time.Duration { return time.Duration(t.spans[id].End - t.spans[id].Start) }

// timed runs fn repeats times, each inside its own span, and returns the
// median duration in nanoseconds.
func (t *tracer) timed(name string, repeats int, fn func() error) (float64, error) {
	ds := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		id := t.begin(name, -1, time.Now())
		err := fn()
		t.end(id, time.Now())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(t.dur(id)))
	}
	_, med, _ := quartiles(ds)
	return med, nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// roundClock is the io.Writer a traced call's congest.Observer writes its
// per-round JSONL events to. With a one-event ring each round is written as
// it ends, so the clock stamps it and charges the time since the previous
// event to the event's phase path: rounds and the local work between them
// land in the phase that ran them. As the path changes it closes and opens
// phase spans under the call's span.
type roundClock struct {
	tr   *tracer
	call int
	open []int // one span per component of path
	path string
	last time.Time
}

func newRoundClock(tr *tracer, call int, start time.Time) *roundClock {
	return &roundClock{tr: tr, call: call, last: start}
}

func (c *roundClock) Write(p []byte) (int, error) {
	now := time.Now()
	if ph := phaseField(p); string(ph) != c.path {
		c.switchTo(string(ph))
	}
	c.last = now
	return len(p), nil
}

// phaseField returns the value of an event line's "phase" field.
func phaseField(line []byte) []byte {
	const key = `"phase":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return nil
	}
	rest := line[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return nil
}

// switchTo ends the spans of path components the new path does not share,
// at the previous event, and opens spans for the new components.
func (c *roundClock) switchTo(path string) {
	var parts []string
	if path != "" {
		parts = strings.Split(path, "/")
	}
	old := strings.Split(c.path, "/")
	k := 0
	for k < len(c.open) && k < len(parts) && old[k] == parts[k] {
		k++
	}
	for i := len(c.open) - 1; i >= k; i-- {
		c.tr.end(c.open[i], c.last)
	}
	c.open = c.open[:k]
	for i := k; i < len(parts); i++ {
		parent := c.call
		if i > 0 {
			parent = c.open[i-1]
		}
		c.open = append(c.open, c.tr.begin(strings.Join(parts[:i+1], "/"), parent, c.last))
	}
	c.path = path
}

// phaseNames lists, per family, the observer phase paths whose wall time
// the pass reports. Top-level phases also get round and message counts.
var phaseNames = map[string][]string{
	"matching":   frameworkPhases,
	"mis":        append(slices.Clone(frameworkPhases), "conflict-resolution"),
	"clustering": frameworkPhases,
	"walkroute":  {"walkroute", "walkroute/forward", "walkroute/reverse"},
}

// frameworkPhases are the Theorem 2.6 phases every framework family runs.
var frameworkPhases = []string{
	"diameter-check", "elect-leaders", "orientation",
	"gather-solve-disseminate", "gather-solve-disseminate/forward", "gather-solve-disseminate/reverse",
}

// Settings of the traced pass: the serve defaults for snapshots, and the
// query parameters of its canonical runs.
const (
	decEps       = 0.3
	queryEps     = 0.25
	traceSeed    = 1
	projectSize  = 64
	hitRepeats   = 1001
	buildRepeats = 3
)

// layerPass accumulates the traced pass's metrics and checks.
type layerPass struct {
	tr        *tracer
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []string
}

func (p *layerPass) set(name string, v float64, unit string) { p.metrics[name] = metric{v, unit} }

// check counts one output check of the pass.
func (p *layerPass) check(err error) bool {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
	}
	return err == nil
}

// tracedPass calls each layer's public functions in process and times them:
// graph open, decomposition and snapshot build on both fixtures, overlay
// and incremental decomposition on one churn batch of the serve fixture,
// the serve handler on cached keys, and each query family's canonical run
// with a per-round clock on its observer. Spans go to spansPath.
func tracedPass(serveFix, rebuildFix fixture, dir, spansPath string) *layerPass {
	p := &layerPass{tr: &tracer{t0: time.Now()}, metrics: map[string]metric{}}
	tr := p.tr
	var serveSnap *serve.Snapshot
	var servePath string
	for _, role := range []struct {
		name string
		fix  fixture
	}{{"serve", serveFix}, {"rebuild", rebuildFix}} {
		g, path, err := role.fix.materialize(dir)
		if !p.check(err) {
			return p
		}
		ns, err := tr.timed("graph.OpenMapped", 5, func() error {
			m, err := graph.OpenMapped(path)
			if err == nil {
				m.Close()
			}
			return err
		})
		p.check(err)
		p.set("graph.open_mmap_us."+role.name, ns/1e3, "us")

		var dec *expander.Decomposition
		ns, err = tr.timed("expander.Decompose", buildRepeats, func() error {
			var err error
			dec, err = expander.Decompose(g, decEps, expander.Options{Seed: 1, Workers: 1})
			return err
		})
		if !p.check(err) {
			return p
		}
		p.set("expander.decompose_ms."+role.name, ns/1e6, "ms")
		p.set("expander.clusters."+role.name, float64(len(dec.Clusters)), "count")

		// Snapshots are left mapped: serve keeps their release internal,
		// and the pass's process ends soon after.
		var snap *serve.Snapshot
		ns, err = tr.timed("serve.BuildSnapshot", buildRepeats, func() error {
			var err error
			snap, err = serve.BuildSnapshot(serve.Spec{Path: path, Mmap: true, DecWorkers: 1}, 1)
			return err
		})
		if !p.check(err) {
			return p
		}
		p.set("serve.snapshot_build_ms."+role.name, ns/1e6, "ms")
		if !p.check(sameClusters(snap.Dec, dec)) {
			return p
		}
		if role.name == "serve" {
			serveSnap, servePath = snap, path
		}
	}
	p.mutationLayers(serveSnap)
	p.queryLayers(serveSnap, servePath)
	if spansPath != "" {
		p.check(tr.write(spansPath))
	}
	return p
}

func sameClusters(a, b *expander.Decomposition) error {
	if !slices.Equal(a.Assignment, b.Assignment) {
		return fmt.Errorf("snapshot decomposition differs from expander.Decompose with the same settings")
	}
	return nil
}

// mutationLayers times one /mutate batch's layers: overlay application and
// incremental decomposition.
func (p *layerPass) mutationLayers(snap *serve.Snapshot) {
	ops, err := graph.GenerateChurn(snap.G, churnBatch, traceSeed)
	if !p.check(err) {
		return
	}
	ns, err := p.tr.timed("graph.Overlay.ApplyAll", hitRepeats, func() error {
		_, err := graph.NewOverlay(snap.G).ApplyAll(ops)
		return err
	})
	p.check(err)
	p.set("graph.overlay_apply_us", ns/1e3, "us")

	var stats *expander.IncrementalStats
	var times []float64
	for i := 0; i < buildRepeats; i++ {
		ov := graph.NewOverlay(snap.G)
		if _, err := ov.ApplyAll(ops); !p.check(err) {
			return
		}
		id := p.tr.begin("expander.DecomposeIncremental", -1, time.Now())
		_, g, st, err := expander.DecomposeIncremental(snap.Dec, ov, decEps, expander.Options{Seed: 1, Workers: 1})
		p.tr.end(id, time.Now())
		if !p.check(err) {
			return
		}
		if !p.check(sameShape(g, ov)) {
			return
		}
		times = append(times, float64(p.tr.dur(id)))
		stats = st
	}
	_, med, _ := quartiles(times)
	p.set("expander.incremental_ms", med/1e6, "ms")
	p.set("expander.reuse_fraction", stats.ReuseFraction(), "ratio")
}

func sameShape(g *graph.Graph, ov *graph.Overlay) error {
	if g.N() != ov.N() || g.M() != ov.M() {
		return fmt.Errorf("incremental decomposition returned n=%d m=%d, overlay has n=%d m=%d", g.N(), g.M(), ov.N(), ov.M())
	}
	return nil
}

// discardWriter is a ResponseWriter that keeps only the status, so timed
// handler calls measure the handler and not a recorder.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// queryLayers runs every family through an in-process serve handler (an
// untraced canonical run, then timed cache hits) and directly through the
// library call serve makes, with a round clock on its observer.
func (p *layerPass) queryLayers(snap *serve.Snapshot, path string) {
	srv, err := serve.New(serve.Config{Spec: serve.Spec{Path: path, Mmap: true, DecWorkers: 1}})
	if !p.check(err) {
		return
	}
	defer srv.Close()
	h := srv.Handler()
	serveHTTP := func(family string, body []byte, w *httptest.ResponseRecorder) {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query/"+family, bytes.NewReader(body)))
	}
	rng := rand.New(rand.NewSource(traceSeed))
	var fullHits []float64
	for _, family := range families {
		body := seedBody(traceSeed)
		rec := httptest.NewRecorder()
		id := p.tr.begin("serve.Handler miss "+family, -1, time.Now())
		serveHTTP(family, body, rec)
		p.tr.end(id, time.Now())
		untraced := p.tr.dur(id)
		p.set("untraced_ms."+family, float64(untraced.Nanoseconds())/1e6, "ms")
		_, full, err := checkResponse(rec.Body.Bytes(), want{family: family, epoch: 1, g: snap.G})
		if !p.check(err) {
			continue
		}

		vs := make([]int, projectSize)
		for i := range vs {
			vs[i] = rng.Intn(snap.G.N())
		}
		projBody, _ := json.Marshal(map[string]any{"seed": traceSeed, "vertices": vs})
		rec = httptest.NewRecorder()
		serveHTTP(family, projBody, rec)
		if resp, proj, err := checkResponse(rec.Body.Bytes(), want{family: family, epoch: 1, cached: true, g: snap.G}); p.check(err) {
			p.check(checkProjection(resp, proj, full, vs))
		}
		fullHits = append(fullHits, p.hits(h, family, body, "serve.Handler hit "+family)...)
		_, med, _ := quartiles(p.hits(h, family, projBody, "serve.Handler projected hit "+family))
		p.set("serve.handler_hit_proj_us."+family, med/1e3, "us")

		rep, traced, err := p.tracedCall(snap, family, full)
		if !p.check(err) {
			continue
		}
		p.set("traced_ms."+family, float64(traced.Nanoseconds())/1e6, "ms")
		p.set("trace.overhead."+family, float64(traced)/float64(untraced), "ratio")
		p.set("congest.ns_per_round."+family, float64(untraced.Nanoseconds())/float64(max(rep.Rounds, 1)), "ns")
	}
	_, med, _ := quartiles(fullHits)
	p.set("serve.handler_hit_us", med/1e3, "us")
}

// hits times hitRepeats handler calls on a cached key, each in a span named
// name, and returns their durations in nanoseconds.
func (p *layerPass) hits(h http.Handler, family string, body []byte, name string) []float64 {
	w := &discardWriter{h: http.Header{}}
	ds := make([]float64, 0, hitRepeats)
	for i := 0; i < hitRepeats; i++ {
		req := httptest.NewRequest(http.MethodPost, "/query/"+family, bytes.NewReader(body))
		id := p.tr.begin(name, -1, time.Now())
		h.ServeHTTP(w, req)
		p.tr.end(id, time.Now())
		ds = append(ds, float64(p.tr.dur(id)))
	}
	if w.status != http.StatusOK {
		p.check(fmt.Errorf("%s: handler answered status %d", name, w.status))
	}
	return ds
}

// tracedCall runs family's canonical run as serve does, with a round clock
// on the observer, checks that its output equals the handler's full result,
// and sets the family's phase metrics.
func (p *layerPass) tracedCall(snap *serve.Snapshot, family string, full *resultDoc) (*congest.Report, time.Duration, error) {
	obs := congest.NewObserver()
	start := time.Now()
	call := p.tr.begin(family, -1, start)
	clock := newRoundClock(p.tr, call, start)
	obs.EnableTrace(clock, 1)
	cfg := congest.Config{Seed: traceSeed, Obs: obs}
	coreOpts := core.Options{Decomposition: snap.Dec}
	var same bool
	var err error
	switch family {
	case "matching":
		var r *matching.Result
		if r, err = matching.ApproximateMWM(snap.G, matching.Options{Eps: queryEps, Cfg: cfg, Core: coreOpts}); err == nil {
			same = slices.Equal(r.Mate, full.Mate)
		}
	case "mis":
		var r *maxis.Result
		if r, err = maxis.Approximate(snap.G, maxis.Options{Eps: queryEps, Cfg: cfg, Core: coreOpts}); err == nil {
			same = slices.Equal(r.Set, full.Set)
		}
	case "clustering":
		var r *ldd.Result
		if r, err = ldd.Decompose(snap.G, ldd.Options{Eps: queryEps, Levels: 3, Cfg: cfg, Core: coreOpts}); err == nil {
			same = slices.Equal(r.Labels, full.Labels)
		}
	case "walkroute":
		var to []int
		if to, err = walkRoute(snap, cfg); err == nil {
			same = slices.Equal(to, full.DeliveredTo)
		}
	}
	if err == nil {
		err = obs.Flush()
	}
	clock.switchTo("")
	p.tr.end(call, time.Now())
	if err != nil {
		return nil, 0, fmt.Errorf("traced %s: %w", family, err)
	}
	if !same {
		return nil, 0, fmt.Errorf("traced %s run differs from the handler's result", family)
	}
	p.phaseMetrics(family, call, obs.Report())
	return obs.Report(), p.tr.dur(call), nil
}

// walkRoute routes one token from every vertex to its cluster leader and
// back, as serve's walkroute family does, and returns the leader each
// vertex heard back from (-1 for none).
func walkRoute(snap *serve.Snapshot, cfg congest.Config) ([]int, error) {
	n := snap.G.N()
	budget := snap.WalkBudget
	cfg.MaxRounds = max(cfg.MaxRounds, 2*budget+16)
	tokens := make([][]routing.Token, n)
	for v := range tokens {
		tokens[v] = []routing.Token{{A: -1}}
	}
	plan := routing.Plan{Cluster: snap.Dec.Assignment, Leader: snap.Leader, ForwardRounds: budget, Strategy: routing.RandomWalk}
	cfg.Obs.BeginPhase("walkroute")
	ex, _, err := routing.Exchange(snap.G, cfg, plan, tokens,
		func(leader int, _ routing.Token) (int64, int64) { return int64(leader), 0 })
	cfg.Obs.EndPhase()
	if err != nil {
		return nil, err
	}
	to := make([]int, n)
	for v := range to {
		to[v] = -1
		for _, r := range ex.Responses[v] {
			if r.Seq == 0 {
				to[v] = int(r.A)
			}
		}
	}
	return to, nil
}

// phaseMetrics sets a family's per-phase wall time from the call's spans
// (inclusive of nested phases), its time outside every phase, the share of
// the call its phases' self times cover, and round and message counts of
// its top-level phases from the observer's report.
func (p *layerPass) phaseMetrics(family string, call int, rep *congest.Report) {
	tr := p.tr
	inside := map[int]bool{call: true}
	childTime := map[int]time.Duration{}
	wall := map[string]time.Duration{}
	var phaseSelf time.Duration
	for i := call + 1; i < len(tr.spans); i++ {
		s := tr.spans[i]
		if !inside[s.Parent] {
			continue
		}
		inside[i] = true
		childTime[s.Parent] += tr.dur(i)
		wall[s.Name] += tr.dur(i)
	}
	for i := range inside {
		if i != call {
			phaseSelf += tr.dur(i) - childTime[i]
		}
	}
	total := tr.dur(call)
	reported := map[string]bool{}
	for _, name := range phaseNames[family] {
		reported[name] = true
		p.set("phase_ms."+family+"."+strings.ReplaceAll(name, "/", "."), float64(wall[name].Nanoseconds())/1e6, "ms")
	}
	var unlisted []string
	for name := range wall {
		if !reported[name] && !reported[strings.SplitN(name, "/", 2)[0]] {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		sort.Strings(unlisted)
		fmt.Fprintf(os.Stderr, "bench: %s ran phases the benchmark does not report: %s\n", family, strings.Join(unlisted, ", "))
	}
	p.set("phase_ms."+family+".other", float64((total-childTime[call]).Nanoseconds())/1e6, "ms")
	p.set("trace.coverage."+family, float64(phaseSelf)/float64(total), "ratio")

	top := map[string]*congest.Report{}
	for _, ph := range rep.Phases {
		top[ph.Name] = ph
	}
	for _, name := range phaseNames[family] {
		if strings.Contains(name, "/") {
			continue
		}
		var rounds, msgs float64
		if ph := top[name]; ph != nil {
			rounds, msgs = float64(ph.Rounds), float64(ph.Messages)
		}
		p.set("rounds."+family+"."+name, rounds, "count")
		p.set("messages."+family+"."+name, msgs, "count")
	}
}
