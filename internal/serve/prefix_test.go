package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"

	"expandergap/internal/apps/ldd"
	"expandergap/internal/apps/matching"
	"expandergap/internal/apps/maxis"
	"expandergap/internal/congest"
	"expandergap/internal/core"
)

// postResult posts one query and returns the raw bytes of its canonical
// result, without failing the test, so it can run on any goroutine.
func postResult(base, family, body string) ([]byte, error) {
	resp, err := http.Post(base+"/query/"+family, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var env struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", family, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", family, resp.StatusCode)
	}
	if env.Cached {
		return nil, fmt.Errorf("%s %s: unexpected cache hit", family, body)
	}
	return env.Result, nil
}

// hasPrefix reports whether the server's current snapshot has prepared its
// framework prefix, and fails the test if it prepared more than one.
func hasPrefix(t *testing.T, srv *Server) bool {
	t.Helper()
	snap := srv.cur.Load()
	n := snap.prepares.Load()
	if n > 1 {
		t.Fatalf("snapshot at epoch %d prepared %d prefixes, want at most 1", snap.Epoch, n)
	}
	if (n == 1) != (snap.prefix != nil) {
		t.Fatalf("snapshot at epoch %d: %d prepares but prefix set = %t", snap.Epoch, n, snap.prefix != nil)
	}
	return n == 1
}

// TestPrefixOncePerSnapshot sends eight concurrent first queries across the
// framework families to a fresh server: exactly one of them prepares the
// snapshot's prefix, and every answer is byte-identical to a server queried
// one family at a time. walkroute never prepares a prefix, and a snapshot
// published by /reload or /mutate has none until a framework query arrives.
// Run with -race: the prefix is shared read-only across query goroutines.
func TestPrefixOncePerSnapshot(t *testing.T) {
	path := writeTestGraph(t, 40)
	srv, ts := newTestServer(t, path)
	if hasPrefix(t, srv) {
		t.Fatal("fresh snapshot already has a prefix")
	}

	type query struct{ family, body string }
	framework := []string{"matching", "mis", "clustering"}
	queries := make([]query, 8)
	for i := range queries {
		queries[i] = query{framework[i%len(framework)], fmt.Sprintf(`{"seed": %d}`, 11+i)}
	}
	got := make([][]byte, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = postResult(ts.URL, q.family, q.body)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !hasPrefix(t, srv) {
		t.Fatal("snapshot has no prefix after framework queries")
	}

	_, seq := newTestServer(t, path)
	for i, q := range queries {
		want, err := postResult(seq.URL, q.family, q.body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("%s %s: concurrent answer differs from the sequential server:\n%s\n%s", q.family, q.body, got[i], want)
		}
	}

	// A new snapshot starts without a prefix; walkroute does not build one,
	// the next framework query does.
	for _, swap := range []struct{ url, body string }{
		{"/reload", ``},
		{"/mutate", `{"ops": [{"op": "+", "u": 0, "v": 7}]}`},
	} {
		postJSON(t, ts.URL+swap.url, swap.body, http.StatusOK)
		if hasPrefix(t, srv) {
			t.Fatalf("snapshot published by %s already has a prefix", swap.url)
		}
		if _, err := postResult(ts.URL, "walkroute", `{"seed": 3}`); err != nil {
			t.Fatal(err)
		}
		if hasPrefix(t, srv) {
			t.Fatalf("walkroute prepared a prefix after %s", swap.url)
		}
		if _, err := postResult(ts.URL, "mis", `{"seed": 3}`); err != nil {
			t.Fatal(err)
		}
		if !hasPrefix(t, srv) {
			t.Fatalf("mis after %s left the snapshot without a prefix", swap.url)
		}
	}
}

// TestPrefixedRunMatchesLiveRun checks that a served framework result, whose
// run reused the snapshot's prefix, carries the same answer and the same
// accounting as the library call without a prefix.
func TestPrefixedRunMatchesLiveRun(t *testing.T) {
	srv, ts := newTestServer(t, writeTestGraph(t, 40))
	snap := srv.cur.Load()
	const seed = 5
	for _, family := range []string{"matching", "mis", "clustering"} {
		qr, status := postQuery(t, ts.URL, family, fmt.Sprintf(`{"seed": %d}`, seed))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", family, status)
		}
		obs := congest.NewObserver()
		cfg := congest.Config{Seed: seed, Obs: obs}
		coreOpts := core.Options{Decomposition: snap.Dec}
		same := false
		switch family {
		case "matching":
			r, err := matching.ApproximateMWM(snap.G, matching.Options{Eps: 0.25, Cfg: cfg, Core: coreOpts})
			if err != nil {
				t.Fatal(err)
			}
			same = slices.Equal(r.Mate, qr.Result.Mate)
		case "mis":
			r, err := maxis.Approximate(snap.G, maxis.Options{Eps: 0.25, Cfg: cfg, Core: coreOpts})
			if err != nil {
				t.Fatal(err)
			}
			same = slices.Equal(r.Set, qr.Result.Set)
		case "clustering":
			r, err := ldd.Decompose(snap.G, ldd.Options{Eps: 0.25, Levels: 3, Cfg: cfg, Core: coreOpts})
			if err != nil {
				t.Fatal(err)
			}
			same = slices.Equal(r.Labels, qr.Result.Labels)
		}
		if !same {
			t.Errorf("%s: served answer differs from the live library run", family)
		}
		if live := accountingFromObserver(obs); !reflect.DeepEqual(qr.Result.Accounting, live) {
			t.Errorf("%s: served accounting %+v, live run %+v", family, qr.Result.Accounting, live)
		}
	}
	if !hasPrefix(t, srv) {
		t.Error("framework queries left the snapshot without a prefix")
	}
}
