package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"expandergap/internal/graph"
)

// families are the served query families; coldFamilies are the ones that
// run the Theorem 2.6 framework.
var (
	families     = []string{"matching", "mis", "clustering", "walkroute"}
	coldFamilies = families[:3]
)

// env is what a workload talks to: a server's base URL, the client
// its load goroutines share, and the fixture graph the server was started on.
// Workloads never own the server process, so the smoke test can point them at
// an in-process httptest server.
type env struct {
	url    string
	client *http.Client
	g      *graph.Graph
}

// loopConfig bounds one measured closed loop.
type loopConfig struct {
	seed int64
	dur  time.Duration
	// limit caps each client's measured operations (0 = run until dur has
	// passed).
	limit int
}

// outcome is what one workload measured and checked.
type outcome struct {
	// lat holds the latency of every successful measured operation.
	lat []time.Duration
	// rate is measured operations per second: the sum over clients of each
	// client's completed operations divided by its own busy span.
	rate float64

	attempted, failed int
	errs              []string
	// digests maps each query key to the sha256 of its canonical result.
	digests map[string]string
}

// recorder collects failures and digests from concurrent clients.
type recorder struct {
	mu      sync.Mutex
	out     *outcome
	digests map[string]string
}

func newRecorder() *recorder {
	return &recorder{out: &outcome{}, digests: map[string]string{}}
}

// fail counts one failed operation, keeping the first few messages.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.attempted++
	r.out.failed++
	if len(r.out.errs) < 5 {
		r.out.errs = append(r.out.errs, err.Error())
	}
}

func (r *recorder) digest(key string, result []byte) {
	d := digest(result)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.digests[key]; ok && old != d {
		r.out.failed++
		if len(r.out.errs) < 5 {
			r.out.errs = append(r.out.errs, fmt.Sprintf("key %s answered with two different results", key))
		}
	}
	r.digests[key] = d
}

// loopResult holds each client's latencies and busy span.
type loopResult struct {
	lats  [][]time.Duration
	spans []time.Duration
}

// closedLoop runs clients goroutines, each calling op(client, i) for
// i = 0, 1, ... back to back until cfg.dur has passed or cfg.limit calls
// have been made. A failed call is counted in rec and left out of the
// latencies.
func closedLoop(clients int, cfg loopConfig, rec *recorder, op func(client, i int) (time.Duration, error)) loopResult {
	res := loopResult{lats: make([][]time.Duration, clients), spans: make([]time.Duration, clients)}
	t0 := time.Now()
	deadline := t0.Add(cfg.dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && (cfg.limit == 0 || i < cfg.limit); i++ {
				lat, err := op(c, i)
				if err != nil {
					rec.fail(err)
					continue
				}
				res.lats[c] = append(res.lats[c], lat)
			}
			res.spans[c] = time.Since(t0)
		}(c)
	}
	wg.Wait()
	for _, l := range res.lats {
		rec.out.attempted += len(l)
	}
	return res
}

// measure records the given clients' latencies as the workload's measured
// operations, and their rate: the sum over those clients of completed
// operations divided by the client's own busy span.
func (l loopResult) measure(out *outcome, clients ...int) {
	for _, c := range clients {
		out.lat = append(out.lat, l.lats[c]...)
		if len(l.lats[c]) > 0 {
			out.rate += float64(len(l.lats[c])) / l.spans[c].Seconds()
		}
	}
}

// parallel runs fn(0) ... fn(n-1) concurrently and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func (r *recorder) finish() *outcome {
	r.out.digests = r.digests
	return r.out
}

// query posts one query and checks the full response.
func (e env) query(ctx context.Context, family string, body []byte, w want, buf *bytes.Buffer) (*queryResponse, *resultDoc, time.Duration, error) {
	status, data, lat, err := post(ctx, e.client, e.url+"/query/"+family, body, buf)
	if err != nil {
		return nil, nil, lat, fmt.Errorf("%s: %w", family, err)
	}
	if status != http.StatusOK {
		return nil, nil, lat, fmt.Errorf("%s: status %d: %.200s", family, status, data)
	}
	resp, res, err := checkResponse(data, w)
	if err != nil {
		return nil, nil, lat, fmt.Errorf("%s: %w", family, err)
	}
	return resp, res, lat, nil
}

func seedBody(seed int64) []byte { return []byte(`{"seed":` + strconv.FormatInt(seed, 10) + `}`) }

// runCold sends canonical runs that can never be served from the cache:
// two clients, framework families in rotation, every request with a fresh
// seed. Two warm-up runs with seeds outside the measured range go first.
func runCold(ctx context.Context, e env, cfg loopConfig) *outcome {
	rec := newRecorder()
	base := 1<<20 + rand.New(rand.NewSource(cfg.seed)).Int63n(1<<40)
	bufs := []*bytes.Buffer{new(bytes.Buffer), new(bytes.Buffer)}
	run := func(c int, family string, seed int64) (time.Duration, error) {
		resp, _, lat, err := e.query(ctx, family, seedBody(seed), want{family: family, epoch: 1, g: e.g}, bufs[c])
		if err == nil {
			rec.digest(family+"/seed="+strconv.FormatInt(seed, 10), resp.Result)
		}
		return lat, err
	}
	parallel(len(bufs), func(c int) {
		if _, err := run(c, families[c], base-1-int64(c)); err != nil {
			rec.fail(fmt.Errorf("warm-up: %w", err))
		}
	})
	// Each client rotates through the framework families, the two clients
	// one family apart; no two requests share a seed. Walkroute, at a fifth
	// of their cost, is left out: wherever the deadline cut a rotation, a
	// trailing walkroute or not moved the run's mean latency by ~8%.
	res := closedLoop(len(bufs), cfg, rec, func(c, i int) (time.Duration, error) {
		family := coldFamilies[(i+c)%len(coldFamilies)]
		return run(c, family, base+int64(len(bufs)*i+c))
	})
	res.measure(rec.out, 0, 1)
	return rec.finish()
}

// hotTemplate is one request the hot loop replays, with the response bytes
// it must produce around the per-request took_ms value.
type hotTemplate struct {
	family   string
	body     []byte
	vertices []int // nil for a full-result request
	suffix   []byte
	full     *resultDoc
}

// hotProjections is how many distinct projections hot draws per family.
const hotProjections = 16

// runHot warms one key per family and then sends only cache hits from one
// client: half want the full result, half project 64 seed-chosen vertices.
func runHot(ctx context.Context, e env, cfg loopConfig) *outcome {
	rec := newRecorder()
	rng := rand.New(rand.NewSource(cfg.seed))
	fulls := make([]*hotTemplate, len(families))
	seeds := make([]int64, len(families))
	for f, family := range families {
		seeds[f] = 1 + rng.Int63n(1<<31)
		fulls[f] = &hotTemplate{family: family, body: seedBody(seeds[f])}
	}
	warm := func(f int, buf *bytes.Buffer) error {
		t := fulls[f]
		resp, res, _, err := e.query(ctx, t.family, t.body, want{family: t.family, epoch: 1, g: e.g}, buf)
		if err != nil {
			return err
		}
		rec.digest(t.family+"/seed="+strconv.FormatInt(seeds[f], 10), resp.Result)
		t.full = res
		t.suffix, err = hotSuffix(buf.Bytes())
		return err
	}
	parallel(2, func(c int) {
		buf := new(bytes.Buffer)
		for f := c; f < len(fulls); f += 2 {
			if err := warm(f, buf); err != nil {
				rec.fail(fmt.Errorf("warm-up: %w", err))
			}
		}
	})
	if rec.out.failed > 0 {
		return rec.finish()
	}
	projs := make([][]*hotTemplate, len(families))
	buf := new(bytes.Buffer)
	for f, full := range fulls {
		for p := 0; p < hotProjections; p++ {
			vs := make([]int, 64)
			for j := range vs {
				vs[j] = rng.Intn(e.g.N())
			}
			body, _ := json.Marshal(map[string]any{"seed": seeds[f], "vertices": vs})
			t := &hotTemplate{family: full.family, body: body, vertices: vs, full: full.full}
			err := t.slowCheck(ctx, e, buf)
			if err == nil {
				t.suffix, err = hotSuffix(buf.Bytes())
			}
			if err != nil {
				rec.fail(fmt.Errorf("warm-up: %w", err))
				return rec.finish()
			}
			projs[f] = append(projs[f], t)
		}
	}
	// One client: with two, the load generator and the server's handlers
	// contend for the host's two CPUs, and in interleaved runs the hit
	// latency spread 12.7% between runs against 7.6–9.3% with one.
	r := rand.New(rand.NewSource(rng.Int63()))
	res := closedLoop(1, cfg, rec, func(_, _ int) (time.Duration, error) {
		f := r.Intn(len(families))
		t := fulls[f]
		if r.Intn(2) == 0 {
			t = projs[f][r.Intn(hotProjections)]
		}
		status, data, lat, err := post(ctx, e.client, e.url+"/query/"+t.family, t.body, buf)
		if err != nil {
			return lat, err
		}
		if status != http.StatusOK {
			return lat, fmt.Errorf("%s: status %d", t.family, status)
		}
		if !t.matches(data) {
			if err := t.slowCheck(ctx, e, buf); err != nil {
				return lat, err
			}
		}
		return lat, nil
	})
	res.measure(rec.out, 0)
	return rec.finish()
}

// hotSuffix returns the response bytes after the took_ms value.
func hotSuffix(data []byte) ([]byte, error) {
	i := bytes.Index(data, []byte(`"took_ms":`))
	if i < 0 {
		return nil, fmt.Errorf("response has no took_ms field")
	}
	return append([]byte(nil), data[numberEnd(data, i+len(`"took_ms":`)):]...), nil
}

func numberEnd(data []byte, i int) int {
	for i < len(data) && bytes.IndexByte([]byte("0123456789.eE+-"), data[i]) >= 0 {
		i++
	}
	return i
}

// matches is the hot loop's byte-level check: the response must be a cache
// hit's envelope followed, after took_ms, by exactly the bytes of the checked
// warm-up response.
func (t *hotTemplate) matches(data []byte) bool {
	prefix := `{"family":"` + t.family + `","epoch":1,"cached":true,"batch_size":1,"took_ms":`
	if len(data) < len(prefix) || string(data[:len(prefix)]) != prefix {
		return false
	}
	return bytes.Equal(data[numberEnd(data, len(prefix)):], t.suffix)
}

// slowCheck re-sends the template and decodes and checks the response in
// full: it must be a cache hit, and a projection must equal the full
// result's entries. Used for the warm-up and whenever matches fails.
func (t *hotTemplate) slowCheck(ctx context.Context, e env, buf *bytes.Buffer) error {
	resp, res, _, err := e.query(ctx, t.family, t.body, want{family: t.family, epoch: 1, cached: true, g: e.g}, buf)
	if err != nil {
		return err
	}
	if t.vertices != nil {
		return checkProjection(resp, res, t.full, t.vertices)
	}
	return nil
}

// churnBatch is the /mutate batch size; churnSegment is how many batches
// churn applies before rebuilding the snapshot from its spec.
const (
	churnBatch   = 25
	churnSegment = 10
)

// mutateOp is the /mutate wire form of one graph op.
type mutateOp struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
	W  int64  `json:"w,omitempty"`
}

// writeResponse is the part of a /mutate or /reload answer the benchmark
// checks.
type writeResponse struct {
	Epoch    int64 `json:"epoch"`
	N        int   `json:"n"`
	M        int   `json:"m"`
	Applied  int   `json:"applied"`
	Clusters int   `json:"clusters"`
}

// writer sends /reload and /mutate requests from one client and checks each
// answer against the epoch it must produce and the graph it must describe.
type writer struct {
	ctx   context.Context
	e     env
	buf   bytes.Buffer
	epoch int64
	// clusters is the fixture's cluster count, which every reload rebuilds.
	clusters int
}

func newWriter(ctx context.Context, e env) (*writer, error) {
	st, err := getStatz(e.client, e.url)
	if err != nil {
		return nil, err
	}
	return &writer{ctx: ctx, e: e, epoch: st.Epoch, clusters: st.Decomposition.Clusters}, nil
}

func (w *writer) post(path string, body []byte) (writeResponse, time.Duration, error) {
	var wr writeResponse
	status, data, lat, err := post(w.ctx, w.e.client, w.e.url+path, body, &w.buf)
	if err != nil {
		return wr, lat, fmt.Errorf("%s: %w", path, err)
	}
	if status != http.StatusOK {
		return wr, lat, fmt.Errorf("%s: status %d: %.200s", path, status, data)
	}
	if err := json.Unmarshal(data, &wr); err != nil {
		return wr, lat, fmt.Errorf("%s: %w", path, err)
	}
	w.epoch++
	return wr, lat, nil
}

// reload rebuilds the served snapshot from its spec.
func (w *writer) reload() (time.Duration, error) {
	rr, lat, err := w.post("/reload", nil)
	if err == nil && (rr.Epoch != w.epoch || rr.N != w.e.g.N() || rr.M != w.e.g.M() || rr.Clusters != w.clusters) {
		err = fmt.Errorf("reload answered epoch=%d n=%d m=%d clusters=%d, want epoch=%d n=%d m=%d clusters=%d",
			rr.Epoch, rr.N, rr.M, rr.Clusters, w.epoch, w.e.g.N(), w.e.g.M(), w.clusters)
	}
	return lat, err
}

// mutate sends batch and applies it to replay, the benchmark's own copy of
// the served graph.
func (w *writer) mutate(batch []graph.Op, replay *graph.Overlay) (time.Duration, error) {
	wire := make([]mutateOp, len(batch))
	for j, op := range batch {
		wire[j] = mutateOp{Op: op.Kind.String(), U: op.U, V: op.V, W: op.W}
	}
	body, _ := json.Marshal(map[string]any{"ops": wire})
	mr, lat, err := w.post("/mutate", body)
	if err != nil {
		return lat, err
	}
	if _, err := replay.ApplyAll(batch); err != nil {
		return lat, fmt.Errorf("replaying a batch: %w", err)
	}
	if mr.Epoch != w.epoch || mr.Applied != len(batch) || mr.N != replay.N() || mr.M != replay.M() {
		return lat, fmt.Errorf("mutate answered epoch=%d applied=%d n=%d m=%d, want epoch=%d applied=%d n=%d m=%d",
			mr.Epoch, mr.Applied, mr.N, mr.M, w.epoch, len(batch), replay.N(), replay.M())
	}
	return lat, nil
}

// runChurn has one client send 25-op POST /mutate batches back to back, in
// segments of churnSegment batches. Each segment starts with an untimed
// /reload and a fresh seeded churn trace against the fixture, so every
// mutate meets a snapshot within 10% churn of the fixture; without the
// reload the cost of a mutate followed the state the trace had led to and
// its median wandered between 13 and 20 ms within a run. The benchmark replays every batch
// through its own graph.Overlay to know what each answer must say. The
// first mutate is untimed, and so is one fresh walkroute read after it,
// which checks that reads see the write. Reads are not timed beside the
// writes: on two CPUs a concurrent reader's canonical runs and garbage
// collection moved the mutate p75 by up to 29% between runs.
func runChurn(ctx context.Context, e env, cfg loopConfig) *outcome {
	rec := newRecorder()
	w, err := newWriter(ctx, e)
	if err != nil {
		rec.fail(err)
		return rec.finish()
	}
	traceSeeds := rand.New(rand.NewSource(cfg.seed))
	var ops []graph.Op // the current segment's trace; nil if its start failed
	var replay *graph.Overlay
	step := func(i int) (time.Duration, error) {
		k := i % churnSegment
		if k == 0 {
			ops = nil
			if _, err := w.reload(); err != nil {
				return 0, err
			}
			trace, err := graph.GenerateChurn(e.g, churnSegment*churnBatch, traceSeeds.Int63())
			if err != nil {
				return 0, fmt.Errorf("generating a churn trace: %w", err)
			}
			ops, replay = trace, graph.NewOverlay(e.g)
		}
		if ops == nil {
			return 0, fmt.Errorf("skipped: this churn segment failed to start")
		}
		return w.mutate(ops[k*churnBatch:(k+1)*churnBatch], replay)
	}
	if _, err := step(0); err != nil {
		rec.fail(fmt.Errorf("warm-up: %w", err))
		return rec.finish()
	}
	seed := 1 + traceSeeds.Int63n(1<<40)
	resp, _, _, err := e.query(ctx, "walkroute", seedBody(seed), want{family: "walkroute", epoch: w.epoch, g: replay}, &w.buf)
	if err != nil {
		rec.fail(fmt.Errorf("fresh read: %w", err))
		return rec.finish()
	}
	rec.digest("walkroute/epoch="+strconv.FormatInt(w.epoch, 10)+"/seed="+strconv.FormatInt(seed, 10), resp.Result)
	res := closedLoop(1, cfg, rec, func(_, i int) (time.Duration, error) { return step(i + 1) })
	res.measure(rec.out, 0)
	return rec.finish()
}

// runRebuild has one client rebuild the served snapshot from its own spec
// with POST /reload and an empty body. One untimed reload goes first.
func runRebuild(ctx context.Context, e env, cfg loopConfig) *outcome {
	rec := newRecorder()
	w, err := newWriter(ctx, e)
	if err != nil {
		rec.fail(err)
		return rec.finish()
	}
	if _, err := w.reload(); err != nil {
		rec.fail(fmt.Errorf("warm-up: %w", err))
		return rec.finish()
	}
	res := closedLoop(1, cfg, rec, func(_, _ int) (time.Duration, error) { return w.reload() })
	res.measure(rec.out, 0)
	return rec.finish()
}
