package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// overloadServer builds a server with a single-slot, depth-1 run pool
// whose canonical runs block on the returned gate: each token sent to the
// gate releases exactly one run. That lets the tests hold a run, or the
// whole pool, deliberately and reliably.
func overloadServer(t *testing.T) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	srv, err := New(Config{
		Spec:       Spec{Path: writeTestGraph(t, 24), Eps: 0.3, Seed: 1},
		RunPool:    1,
		QueueDepth: 1,
		blockRuns:  gate,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, gate
}

// flightOccupancy returns the largest occupancy (leader + followers) of
// the server's open flights, 0 when none is open.
func flightOccupancy(srv *Server) int64 {
	srv.batch.mu.Lock()
	defer srv.batch.mu.Unlock()
	var most int64
	for _, f := range srv.batch.flights {
		most = max(most, f.joined.Load())
	}
	return most
}

// release feeds n tokens to the gate, unblocking n canonical runs.
func release(gate chan struct{}, n int) {
	for i := 0; i < n; i++ {
		gate <- struct{}{}
	}
}

// post429 issues a query and asserts the full 429 contract: status,
// Retry-After header, structured JSON body.
func post429(t *testing.T, base, family string, seed int) {
	t.Helper()
	body := fmt.Sprintf(`{"seed": %d}`, seed)
	resp, err := http.Post(base+"/query/"+family, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	var e struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("429 body: %v", err)
	}
	if e.Error == "" || e.RetryAfterSeconds != ra {
		t.Fatalf("429 body %+v inconsistent with Retry-After %d", e, ra)
	}
}

// statzRejected reads the pool rejection counter from /statz.
func statzRejected(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Pool poolStatz `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Pool.Rejected
}

// TestOverloadBackpressure saturates the admission queue and asserts the
// whole overload contract: clean 429s with Retry-After for new work,
// cached and coalesced requests unaffected, monotone rejection counters,
// and no goroutine pileup. Run with -race in CI.
func TestOverloadBackpressure(t *testing.T) {
	srv, ts, gate := overloadServer(t)

	// Warm one cache key (a token releases its run).
	go release(gate, 1)
	if qr, status := postQuery(t, ts.URL, "mis", `{"seed": 1}`); status != http.StatusOK || qr.Cached {
		t.Fatalf("warmup: status %d cached %v", status, qr.Cached)
	}
	if qr, _ := postQuery(t, ts.URL, "mis", `{"seed": 1}`); !qr.Cached {
		t.Fatal("warmup key not cached")
	}

	// Hold the pool full: one run executing (blocked on the gate), one
	// queued behind it.
	var blocked sync.WaitGroup
	blockedStatus := make([]int, 2)
	for i, seed := range []int{100, 101} {
		i, seed := i, seed
		blocked.Add(1)
		go func() {
			defer blocked.Done()
			_, status := postQuery(t, ts.URL, "mis", fmt.Sprintf(`{"seed": %d}`, seed))
			blockedStatus[i] = status
		}()
		want := int64(i) // after the first, queue holds i jobs
		waitFor(t, "pool occupancy", func() bool {
			return srv.pool.running.Load() == 1 && srv.pool.queued.Load() == want
		})
	}

	// New canonical work is rejected, immediately and cleanly.
	post429(t, ts.URL, "mis", 102)

	// A coalescing follower of the queued flight succeeds without a slot.
	blocked.Add(1)
	var followerStatus int
	var followerBatch int64
	go func() {
		defer blocked.Done()
		qr, status := postQuery(t, ts.URL, "mis", `{"seed": 101}`)
		followerStatus = status
		if qr != nil {
			followerBatch = qr.BatchSize
		}
	}()
	waitFor(t, "follower joined", func() bool { return flightOccupancy(srv) >= 2 })

	// Cache hits keep being served while the pool is full, each within 5 s.
	for i := 0; i < 5; i++ {
		start := time.Now()
		if qr, status := postQuery(t, ts.URL, "mis", `{"seed": 1}`); status != http.StatusOK || !qr.Cached {
			t.Fatalf("cache hit under overload: status %d, cached %v", status, qr != nil && qr.Cached)
		}
		// Errorf, not Fatalf: the held runs must still drain below.
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("cache hit under overload took %v, want <= 5s", d)
		}
	}

	// A burst of distinct-key requests: all rejected, no goroutine growth.
	before := runtime.NumGoroutine()
	rejectedBefore := statzRejected(t, ts.URL)
	const burst = 50
	for i := 0; i < burst; i++ {
		post429(t, ts.URL, "matching", 200+i)
	}
	rejectedAfter := statzRejected(t, ts.URL)
	if rejectedAfter < rejectedBefore+burst {
		t.Fatalf("pool rejections %d -> %d, want monotone growth by >= %d",
			rejectedBefore, rejectedAfter, burst)
	}
	// Allow a little slack for idle HTTP conns; the point is that 50
	// rejected requests leave no goroutines behind.
	waitFor(t, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= before+10
	})

	// Queue occupancy never grew past its bounds.
	if q, r := srv.pool.queued.Load(), srv.pool.running.Load(); q > 1 || r > 1 {
		t.Fatalf("pool overfilled: queued=%d running=%d", q, r)
	}

	// Drain: two tokens release the two held runs; everyone blocked
	// (leaders and follower) completes successfully.
	release(gate, 2)
	blocked.Wait()
	for i, status := range blockedStatus {
		if status != http.StatusOK {
			t.Fatalf("held request %d finished with status %d", i, status)
		}
	}
	if followerStatus != http.StatusOK || followerBatch < 2 {
		t.Fatalf("follower: status %d batch %d, want 200 with batch >= 2", followerStatus, followerBatch)
	}

	// Per-family rejection counters surfaced and consistent.
	stats := getJSON(t, ts.URL+"/statz", http.StatusOK)
	fams := stats["families"].(map[string]any)
	var famRejected float64
	for _, f := range fams {
		famRejected += f.(map[string]any)["rejected"].(float64)
	}
	if int64(famRejected) != rejectedAfter {
		t.Fatalf("family rejected sum %v != pool rejected %d", famRejected, rejectedAfter)
	}
}

// TestOverloadRecovery asserts the server serves fresh canonical runs
// normally again once the backlog drains.
func TestOverloadRecovery(t *testing.T) {
	srv, ts, gate := overloadServer(t)

	// Fill worker + queue.
	var blocked sync.WaitGroup
	for i, seed := range []int{300, 301} {
		seed := seed
		blocked.Add(1)
		go func() {
			defer blocked.Done()
			postQuery(t, ts.URL, "clustering", fmt.Sprintf(`{"seed": %d}`, seed))
		}()
		waitFor(t, "pool occupancy", func() bool {
			return srv.pool.running.Load() == 1 && srv.pool.queued.Load() == int64(i)
		})
	}
	post429(t, ts.URL, "clustering", 302)

	// Drain and verify the previously rejected key now runs fine.
	release(gate, 2)
	blocked.Wait()
	go release(gate, 1)
	qr, status := postQuery(t, ts.URL, "clustering", `{"seed": 302}`)
	if status != http.StatusOK || qr.Cached {
		t.Fatalf("post-drain run: status %d, cached %v", status, qr != nil && qr.Cached)
	}
	// And it is cached on the second hit.
	if qr, _ := postQuery(t, ts.URL, "clustering", `{"seed": 302}`); !qr.Cached {
		t.Fatal("post-drain result not cached")
	}
	if srv.pool.statz().Completed < 3 {
		t.Fatalf("pool completed %d runs, want >= 3", srv.pool.statz().Completed)
	}
}
