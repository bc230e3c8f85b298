package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeTestGraph writes a connected ring-with-chords graph of n vertices as
// a text edge list and returns its path.
func writeTestGraph(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	type edge struct{ u, v int }
	var edges []edge
	for i := 0; i < n; i++ {
		edges = append(edges, edge{i, (i + 1) % n})
	}
	for i := 0; i < n/2; i++ {
		u, v := i, (i+n/2)%n
		if u != v && v != (u+1)%n && u != (v+1)%n {
			edges = append(edges, edge{u, v})
		}
	}
	fmt.Fprintf(&buf, "%d %d\n", n, len(edges))
	for _, e := range edges {
		fmt.Fprintf(&buf, "%d %d\n", e.u, e.v)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("ring%d.txt", n))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t *testing.T, path string) (*Server, *httptest.Server) {
	t.Helper()
	// Deep admission queue: these tests exercise serving semantics, not
	// backpressure (overload_test.go owns that), so no request should ever
	// see 429 here even on a single-CPU host under -race.
	srv, err := New(Config{Spec: Spec{Path: path, Eps: 0.3, Seed: 1}, QueueDepth: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d (%v), want %d", url, resp.StatusCode, e, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return out
}

func postQuery(t *testing.T, base, family, body string) (*QueryResponse, int) {
	t.Helper()
	resp, err := http.Post(base+"/query/"+family, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /query/%s: %v", family, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("POST /query/%s: decode: %v", family, err)
	}
	return &qr, resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, writeTestGraph(t, 24))
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" || out["epoch"].(float64) != 1 {
		t.Fatalf("healthz = %v", out)
	}
	resp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status %d, want 405", resp.StatusCode)
	}
}

func TestStatz(t *testing.T) {
	path := writeTestGraph(t, 24)
	_, ts := newTestServer(t, path)
	out := getJSON(t, ts.URL+"/statz", http.StatusOK)
	if out["epoch"].(float64) != 1 {
		t.Fatalf("statz epoch = %v", out["epoch"])
	}
	g := out["graph"].(map[string]any)
	if g["path"] != path || g["n"].(float64) != 24 {
		t.Fatalf("statz graph = %v", g)
	}
	dec := out["decomposition"].(map[string]any)
	if dec["clusters"].(float64) < 1 {
		t.Fatalf("statz decomposition = %v", dec)
	}
	fams := out["families"].(map[string]any)
	for _, f := range Families() {
		if _, ok := fams[f]; !ok {
			t.Fatalf("statz families missing %q: %v", f, fams)
		}
	}
}

func TestQueryFamilies(t *testing.T) {
	_, ts := newTestServer(t, writeTestGraph(t, 24))
	for _, family := range Families() {
		qr, status := postQuery(t, ts.URL, family, `{"seed": 3}`)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", family, status)
		}
		if qr.Family != family || qr.Epoch != 1 || qr.Cached {
			t.Fatalf("%s: envelope %+v", family, qr)
		}
		r := qr.Result
		if r.N != 24 || r.Clusters < 1 || len(r.PerCluster) != r.Clusters {
			t.Fatalf("%s: result %+v", family, r)
		}
		if r.Accounting.Rounds <= 0 || r.Accounting.Messages <= 0 {
			t.Fatalf("%s: empty accounting %+v", family, r.Accounting)
		}
		switch family {
		case "matching":
			if len(r.Mate) != 24 || r.MatchingSize <= 0 {
				t.Fatalf("matching result %+v", r)
			}
		case "mis":
			if r.SetSize <= 0 || len(r.Set) != r.SetSize {
				t.Fatalf("mis result %+v", r)
			}
		case "clustering":
			if len(r.Labels) != 24 {
				t.Fatalf("clustering result %+v", r)
			}
		case "walkroute":
			if len(r.DeliveredTo) != 24 || r.Delivered+r.Undelivered != 24 {
				t.Fatalf("walkroute result %+v", r)
			}
		}

		// Identical params must now be a cache hit with the same result.
		qr2, _ := postQuery(t, ts.URL, family, `{"seed": 3}`)
		if !qr2.Cached {
			t.Fatalf("%s: second identical query not cached", family)
		}
		b1, _ := json.Marshal(qr.Result)
		b2, _ := json.Marshal(qr2.Result)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: cached result differs from original", family)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, writeTestGraph(t, 24))
	cases := []struct {
		family, body string
		status       int
	}{
		{"nosuch", `{}`, http.StatusNotFound},
		{"matching", `{"bogus": 1}`, http.StatusBadRequest},
		{"matching", `{"eps": 2.0}`, http.StatusBadRequest},
		{"matching", `{"eps": -0.5}`, http.StatusBadRequest},
		{"matching", `{"vertices": [99]}`, http.StatusBadRequest},
		{"walkroute", `{"budget": -1}`, http.StatusBadRequest},
		{"walkroute", `{"budget": 449}`, http.StatusBadRequest}, // 8n+256 = 448 on the 24-ring
		{"clustering", `{"levels": 25}`, http.StatusBadRequest}, // max(n,3) = 24 on the 24-ring
		{"clustering", `{"levels": 1000000}`, http.StatusBadRequest},
		{"clustering", `{"eps": 1e-300}`, http.StatusOK}, // levels/ε overflows an int
		{"matching", `not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, status := postQuery(t, ts.URL, c.family, c.body); status != c.status {
			t.Errorf("POST /query/%s %q: status %d, want %d", c.family, c.body, status, c.status)
		}
	}
	resp, err := http.Get(ts.URL + "/query/matching")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query/matching: status %d, want 405", resp.StatusCode)
	}
}

func TestQueryProjection(t *testing.T) {
	_, ts := newTestServer(t, writeTestGraph(t, 24))
	qr, status := postQuery(t, ts.URL, "matching", `{"vertices": [5, 0, 5, 2]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	want := []int{0, 2, 5} // sorted, deduped
	if len(qr.Selection) != len(want) {
		t.Fatalf("selection %+v, want vertices %v", qr.Selection, want)
	}
	for i, va := range qr.Selection {
		if va.V != want[i] {
			t.Fatalf("selection %+v, want vertices %v", qr.Selection, want)
		}
	}
	if qr.Result.Mate != nil || qr.Result.PerCluster != nil {
		t.Fatalf("projected result not trimmed: %+v", qr.Result)
	}
	// The projection must agree with the full (cached, canonical) result.
	full, _ := postQuery(t, ts.URL, "matching", `{}`)
	if !full.Cached {
		t.Fatalf("full query should hit the projection's cached canonical run")
	}
	for _, va := range qr.Selection {
		if va.Value != int64(full.Result.Mate[va.V]) {
			t.Fatalf("projection %+v disagrees with full mate %v", va, full.Result.Mate[va.V])
		}
	}
}

func TestReload(t *testing.T) {
	g1 := writeTestGraph(t, 24)
	g2 := writeTestGraph(t, 40)
	srv, ts := newTestServer(t, g1)

	// Method and body errors first.
	resp, err := http.Get(ts.URL + "/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload: status %d, want 405", resp.StatusCode)
	}
	postJSON(t, ts.URL+"/reload", `not json`, http.StatusBadRequest)
	postJSON(t, ts.URL+"/reload", `{"path": "/nonexistent/graph.txt"}`, http.StatusUnprocessableEntity)
	if srv.Epoch() != 1 {
		t.Fatalf("failed reload advanced the epoch to %d", srv.Epoch())
	}

	// Seed the cache, then swap to g2 and make sure the cache was dropped.
	before, _ := postQuery(t, ts.URL, "mis", `{}`)
	out := postJSON(t, ts.URL+"/reload", fmt.Sprintf(`{"path": %q}`, g2), http.StatusOK)
	if out["epoch"].(float64) != 2 || out["n"].(float64) != 40 {
		t.Fatalf("reload response %v", out)
	}
	after, _ := postQuery(t, ts.URL, "mis", `{}`)
	if after.Cached {
		t.Fatalf("query after swap served a stale cached result")
	}
	if after.Epoch != 2 || after.Result.N != 40 || before.Result.N != 24 {
		t.Fatalf("post-swap result %+v", after.Result)
	}

	// Empty body rebuilds the current spec.
	out = postJSON(t, ts.URL+"/reload", ``, http.StatusOK)
	if out["epoch"].(float64) != 3 || out["n"].(float64) != 40 {
		t.Fatalf("rebuild response %v", out)
	}

	stats := getJSON(t, ts.URL+"/statz", http.StatusOK)
	if stats["reloads"].(float64) != 2 || stats["reload_errors"].(float64) != 1 {
		t.Fatalf("statz reload counters: %v %v", stats["reloads"], stats["reload_errors"])
	}
}

// TestReloadRejectsBadSpecs checks that /reload refuses an unknown field
// (400) and an ε outside (0,1) (422) without advancing the epoch, and that
// New refuses such an ε too.
func TestReloadRejectsBadSpecs(t *testing.T) {
	path := writeTestGraph(t, 24)
	srv, ts := newTestServer(t, path)
	cases := []struct {
		body   string
		status int
	}{
		{`{"paht": "x.bin"}`, http.StatusBadRequest},
		{`{"eps": 1.5}`, http.StatusUnprocessableEntity},
		{`{"eps": -0.2}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("POST /reload %s: status %d, want %d", c.body, resp.StatusCode, c.status)
		}
	}
	if got := srv.Epoch(); got != 1 {
		t.Errorf("rejected reloads advanced the epoch to %d", got)
	}
	if _, err := New(Config{Spec: Spec{Path: path, Eps: 1.5}}); err == nil {
		t.Error("New with eps 1.5 succeeded, want an error")
	}
}

// TestSwapTorture races queries against hot reloads between two graphs and
// asserts the serving contract: zero failed requests, no torn snapshots
// (every response's epoch and graph size belong together), and per-client
// monotone epochs. Run with -race.
func TestSwapTorture(t *testing.T) {
	g1 := writeTestGraph(t, 24)
	g2 := writeTestGraph(t, 40)
	srv, ts := newTestServer(t, g1)

	// nByEpoch records the graph size each epoch was built from: odd epochs
	// serve g1 (24 vertices), even ones g2 (40).
	nFor := func(epoch int64) int {
		if epoch%2 == 1 {
			return 24
		}
		return 40
	}

	const clients = 8
	const perClient = 30
	var wg sync.WaitGroup
	var failures atomic.Int64
	errCh := make(chan error, clients)
	families := Families()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastEpoch := int64(0)
			for i := 0; i < perClient; i++ {
				family := families[(c+i)%len(families)]
				body := fmt.Sprintf(`{"seed": %d}`, 1+(c+i)%3)
				resp, err := http.Post(ts.URL+"/query/"+family, "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					failures.Add(1)
					continue
				}
				var qr QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				if qr.Epoch < lastEpoch {
					errCh <- fmt.Errorf("client %d: epoch regressed %d -> %d", c, lastEpoch, qr.Epoch)
					return
				}
				lastEpoch = qr.Epoch
				if want := nFor(qr.Epoch); qr.Result.N != want {
					errCh <- fmt.Errorf("client %d: torn snapshot: epoch %d served n=%d, want %d",
						c, qr.Epoch, qr.Result.N, want)
					return
				}
			}
		}(c)
	}

	const reloads = 6
	for r := 0; r < reloads; r++ {
		path := g2
		if r%2 == 1 {
			path = g1
		}
		if _, err := srv.Reload(Spec{Path: path}); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during hot swaps, want 0", n)
	}
	if got := srv.Epoch(); got != 1+reloads {
		t.Fatalf("final epoch %d, want %d", got, 1+reloads)
	}
}

// TestCacheHitLatencyUnderConcurrency checks that cache hits stay on their
// fast path as closed-loop concurrency grows: with one warmed key and 10
// requests per client, the cache-hit p99 at 128 clients stays within
// max(25× the 16-client p99, 250 ms). The server keeps the default run pool,
// so a hit that queued for a run slot would be rejected at this fan-out;
// every answer must be a 200 cache hit. Run with -race.
func TestCacheHitLatencyUnderConcurrency(t *testing.T) {
	srv, err := New(Config{Spec: Spec{Path: writeTestGraph(t, 24), Eps: 0.3, Seed: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	defer client.CloseIdleConnections()

	const body = `{"seed": 1}`
	if _, status := postQuery(t, ts.URL, "mis", body); status != http.StatusOK {
		t.Fatalf("warmup: status %d", status)
	}
	p99 := func(clients int) time.Duration {
		const perClient = 10
		lats := make([]time.Duration, clients*perClient)
		var misses atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					start := time.Now()
					resp, err := client.Post(ts.URL+"/query/mis", "application/json", strings.NewReader(body))
					if err != nil {
						misses.Add(1)
						continue
					}
					data, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					lats[c*perClient+i] = time.Since(start)
					var qr QueryResponse
					if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(data, &qr) != nil || !qr.Cached {
						misses.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		if n := misses.Load(); n != 0 {
			t.Fatalf("%d clients: %d of %d answers were not 200 cache hits", clients, n, len(lats))
		}
		slices.Sort(lats)
		return lats[int(0.99*float64(len(lats)-1))]
	}
	ref, top := p99(16), p99(128)
	limit := max(25*ref, 250*time.Millisecond)
	t.Logf("cache-hit p99: %v at 16 clients, %v at 128 (limit %v)", ref, top, limit)
	if top > limit {
		t.Errorf("cache-hit p99 %v at 128 clients exceeds %v (25x the 16-client %v, floor 250ms)", top, limit, ref)
	}
}

// TestCoalescingDeterminism holds each family's canonical run on the gate
// until concurrent identical requests have all joined its flight, then
// asserts (a) they shared one batch of exactly that size and (b) the batched
// result is bit-identical to a sequential run of the same params on a fresh
// server.
func TestCoalescingDeterminism(t *testing.T) {
	batchedSrv, batched, gate := overloadServer(t)
	_, sequential := newTestServer(t, writeTestGraph(t, 24))

	for _, family := range Families() {
		const concurrent = 6
		body := `{"seed": 7}`
		results := make([]*QueryResponse, concurrent)
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				qr, status := postQuery(t, batched.URL, family, body)
				if status == http.StatusOK {
					results[i] = qr
				}
			}(i)
		}
		waitFor(t, "all requests joined the flight", func() bool {
			return flightOccupancy(batchedSrv) == concurrent
		})
		release(gate, 1)
		wg.Wait()

		var canonical []byte
		for i, qr := range results {
			if qr == nil {
				t.Fatalf("%s: request %d failed", family, i)
			}
			if qr.BatchSize != concurrent {
				t.Fatalf("%s: request %d saw batch size %d, want %d", family, i, qr.BatchSize, concurrent)
			}
			b, _ := json.Marshal(qr.Result)
			if canonical == nil {
				canonical = b
			} else if !bytes.Equal(canonical, b) {
				t.Fatalf("%s: batched members returned different results", family)
			}
		}

		seq, status := postQuery(t, sequential.URL, family, body)
		if status != http.StatusOK {
			t.Fatalf("%s: sequential run failed: %d", family, status)
		}
		sb, _ := json.Marshal(seq.Result)
		if !bytes.Equal(canonical, sb) {
			t.Fatalf("%s: batched result differs from sequential run:\nbatched:    %s\nsequential: %s",
				family, canonical, sb)
		}
	}
}

// TestDeterministicTrack covers the deterministic=true variants (tree
// routing for walkroute, deterministic framework track for the others).
func TestDeterministicTrack(t *testing.T) {
	_, ts := newTestServer(t, writeTestGraph(t, 24))
	for _, family := range Families() {
		qr, status := postQuery(t, ts.URL, family, `{"deterministic": true}`)
		if status != http.StatusOK {
			t.Fatalf("%s deterministic: status %d", family, status)
		}
		if qr.Cached {
			t.Fatalf("%s: deterministic params unexpectedly shared the default cache key", family)
		}
		if family == "walkroute" && qr.Result.Delivered == 0 {
			t.Fatalf("walkroute deterministic: nothing delivered: %+v", qr.Result)
		}
	}
}

func TestServerClose(t *testing.T) {
	srv, err := New(Config{Spec: Spec{Path: writeTestGraph(t, 24)}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("statz after Close: status %d, want 503", resp.StatusCode)
	}
	postJSON(t, ts.URL+"/reload", ``, http.StatusServiceUnavailable)
	// Close is idempotent.
	srv.Close()
}

// TestCloseFinishesWaitingRuns holds one canonical run on the gate with a
// second waiting for its slot, closes the server, and requires both runs to
// finish: Close must not strand an admitted run.
func TestCloseFinishesWaitingRuns(t *testing.T) {
	srv, ts, gate := overloadServer(t)
	statuses := make(chan int, 2)
	for i, seed := range []int{400, 401} {
		go func() {
			_, status := postQuery(t, ts.URL, "mis", fmt.Sprintf(`{"seed": %d}`, seed))
			statuses <- status
		}()
		waitFor(t, "pool occupancy", func() bool {
			return srv.pool.running.Load() == 1 && srv.pool.queued.Load() == int64(i)
		})
	}
	srv.Close()
	go release(gate, 2)
	timeout := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case status := <-statuses:
			if status != http.StatusOK {
				t.Fatalf("run %d after Close: status %d, want 200", i, status)
			}
		case <-timeout:
			t.Fatalf("%d of 2 runs finished within 10s of Close", i)
		}
	}
}
