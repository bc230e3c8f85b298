package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"expandergap/internal/graph"
)

func TestMutateBasic(t *testing.T) {
	path := writeTestGraph(t, 24)
	srv, ts := newTestServer(t, path)

	// Seed the cache so we can prove the swap invalidated it.
	before, _ := postQuery(t, ts.URL, "mis", `{}`)
	if before.Epoch != 1 {
		t.Fatalf("initial epoch %d", before.Epoch)
	}

	out := postJSON(t, ts.URL+"/mutate",
		`{"ops": [{"op": "+v"}, {"op": "+", "u": 0, "v": 24}, {"op": "-", "u": 0, "v": 1}]}`,
		http.StatusOK)
	if out["epoch"].(float64) != 2 || out["n"].(float64) != 25 {
		t.Fatalf("mutate response %v", out)
	}
	if out["applied"].(float64) != 3 || out["incremental"] != true {
		t.Fatalf("mutate accounting %v", out)
	}
	if out["clusters"].(float64) < 1 || out["mutations_total"].(float64) != 3 {
		t.Fatalf("mutate response %v", out)
	}
	reused, broken := out["reused"].(float64), out["broken"].(float64)
	newc := out["new_clusters"].(float64)
	if reused+newc != out["clusters"].(float64) {
		t.Fatalf("cluster accounting: reused %v + new %v != clusters %v", reused, newc, out["clusters"])
	}
	if broken < 0 || out["reuse_fraction"].(float64) < 0 || out["reuse_fraction"].(float64) > 1 {
		t.Fatalf("mutate stats %v", out)
	}

	after, _ := postQuery(t, ts.URL, "mis", `{}`)
	if after.Cached {
		t.Fatal("query after mutate served a stale cached result")
	}
	if after.Epoch != 2 || after.Result.N != 25 {
		t.Fatalf("post-mutate result epoch=%d n=%d", after.Epoch, after.Result.N)
	}
	if srv.Epoch() != 2 {
		t.Fatalf("server epoch %d", srv.Epoch())
	}

	stats := getJSON(t, ts.URL+"/statz", http.StatusOK)
	if stats["mutates"].(float64) != 1 || stats["mutated_ops"].(float64) != 3 {
		t.Fatalf("statz mutate counters: %v %v", stats["mutates"], stats["mutated_ops"])
	}
	if stats["mutations"].(float64) != 3 {
		t.Fatalf("statz snapshot mutations: %v", stats["mutations"])
	}

	// A reload from the spec path resets the cumulative mutation count.
	postJSON(t, ts.URL+"/reload", ``, http.StatusOK)
	stats = getJSON(t, ts.URL+"/statz", http.StatusOK)
	if stats["mutations"].(float64) != 0 {
		t.Fatalf("mutations after reload: %v", stats["mutations"])
	}
}

func TestMutateFull(t *testing.T) {
	_, ts := newTestServer(t, writeTestGraph(t, 24))
	out := postJSON(t, ts.URL+"/mutate",
		`{"ops": [{"op": "-", "u": 0, "v": 1}], "full": true}`, http.StatusOK)
	if out["incremental"] != false {
		t.Fatalf("full rebuild reported incremental: %v", out)
	}
	if out["reused"].(float64) != 0 || out["broken"].(float64) != 0 {
		t.Fatalf("full rebuild carries incremental stats: %v", out)
	}
	if out["epoch"].(float64) != 2 || out["clusters"].(float64) < 1 {
		t.Fatalf("full rebuild response %v", out)
	}
}

func TestMutateErrors(t *testing.T) {
	srv, ts := newTestServer(t, writeTestGraph(t, 24))

	resp, err := http.Get(ts.URL + "/mutate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mutate: status %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		body   string
		status int
		frag   string
	}{
		{`not json`, http.StatusBadRequest, "bad mutate request"},
		{`{"ops": [], "bogus": 1}`, http.StatusBadRequest, "bad mutate request"},
		{`{"ops": []}`, http.StatusBadRequest, "no ops"},
		{`{"ops": [{"op": "?", "u": 0, "v": 1}]}`, http.StatusUnprocessableEntity, "unknown op verb"},
		{`{"ops": [{"op": "+", "u": 0, "v": 99}]}`, http.StatusUnprocessableEntity, "op 0"},
		{`{"ops": [{"op": "-", "u": 0, "v": 1}, {"op": "-", "u": 0, "v": 1}]}`, http.StatusUnprocessableEntity, "op 1"},
		{`{"ops": [{"op": "+", "u": 3, "v": 3}]}`, http.StatusUnprocessableEntity, "op 0"},
	}
	for _, c := range cases {
		got := postJSON(t, ts.URL+"/mutate", c.body, c.status)
		if msg, _ := got["error"].(string); !bytes.Contains([]byte(msg), []byte(c.frag)) {
			t.Errorf("POST /mutate %q: error %q missing %q", c.body, msg, c.frag)
		}
	}
	if srv.Epoch() != 1 {
		t.Fatalf("failed mutations advanced the epoch to %d", srv.Epoch())
	}
	stats := getJSON(t, ts.URL+"/statz", http.StatusOK)
	// Only the batches that reached Apply count as mutate errors (the verb
	// and JSON rejections never touch the graph).
	if stats["mutate_errors"].(float64) != 3 {
		t.Fatalf("statz mutate_errors: %v", stats["mutate_errors"])
	}
}

// TestMutateChurnTrace replays a generated churn stream through the HTTP
// endpoint in batches, as the churn benchmark workload does. Every batch
// must apply cleanly because GenerateChurn builds ops against the same
// evolving state the server maintains.
func TestMutateChurnTrace(t *testing.T) {
	path := writeTestGraph(t, 24)
	srv, ts := newTestServer(t, path)

	g, err := graph.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := graph.GenerateChurn(g, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 10
	for i := 0; i < len(ops); i += batch {
		end := i + batch
		if end > len(ops) {
			end = len(ops)
		}
		req := MutateRequest{}
		for _, op := range ops[i:end] {
			req.Ops = append(req.Ops, MutateOp{Op: op.Kind.String(), U: op.U, V: op.V, W: op.W})
		}
		body, _ := json.Marshal(req)
		out := postJSON(t, ts.URL+"/mutate", string(body), http.StatusOK)
		if out["applied"].(float64) != float64(end-i) {
			t.Fatalf("batch %d: applied %v, want %d", i/batch, out["applied"], end-i)
		}
	}
	if want := int64(1 + (len(ops)+batch-1)/batch); srv.Epoch() != want {
		t.Fatalf("final epoch %d, want %d", srv.Epoch(), want)
	}
	stats := getJSON(t, ts.URL+"/statz", http.StatusOK)
	if stats["mutations"].(float64) != float64(len(ops)) {
		t.Fatalf("cumulative mutations %v, want %d", stats["mutations"], len(ops))
	}
	// The mutated graph still serves queries.
	if qr, status := postQuery(t, ts.URL, "matching", `{}`); status != http.StatusOK || qr.Result.Clusters < 1 {
		t.Fatalf("query on churned graph: status %d", status)
	}
}

// TestMutateQueryTorture races queries against a stream of mutation batches
// and asserts the dynamic serving contract: zero failed requests, per-client
// monotone epochs, and no torn snapshots — every response's (epoch, n) pair
// matches what the mutation stream built for that epoch. Run with -race.
func TestMutateQueryTorture(t *testing.T) {
	srv, ts := newTestServer(t, writeTestGraph(t, 24))

	// Each batch adds one vertex wired to vertex 0, so epoch e serves
	// exactly n = 24 + (e-1) vertices: the tearing detector.
	nFor := func(epoch int64) int { return 24 + int(epoch) - 1 }

	const clients = 8
	const perClient = 25
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

	const batches = 6
	for b := 0; b < batches; b++ {
		nv := 24 + b // the vertex this batch adds
		ops := []graph.Op{
			{Kind: graph.OpAddVertex},
			{Kind: graph.OpAddEdge, U: 0, V: nv},
		}
		snap, resp, err := srv.Mutate(ops, false)
		if err != nil {
			t.Fatalf("mutate %d: %v", b, err)
		}
		if snap.Epoch != int64(b+2) || resp.N != 24+b+1 {
			t.Fatalf("mutate %d: epoch %d n=%d", b, snap.Epoch, resp.N)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during mutations, want 0", n)
	}
	if got := srv.Epoch(); got != 1+batches {
		t.Fatalf("final epoch %d, want %d", got, 1+batches)
	}
}
