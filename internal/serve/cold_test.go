package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"expandergap/internal/graph"
)

// er800Snapshot builds a serving snapshot of the benchmark's er800 fixture
// (G(n, p) with mean degree 6, the CI serve-smoke graph) from a binary CSR
// file under the test's temporary directory, with the server's default
// decomposition spec.
func er800Snapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "er800.bin")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := graph.WriteBinary(f, graph.ErdosRenyiStream(800, 6.0/800, 11, 0)); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	snap, err := BuildSnapshot(Spec{Path: path}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestColdQueriesPinned pins the cold path on er800: one canonical run of
// each framework family, each its encoded result's sha256 and its total
// rounds, messages and words. Any change to the simulator, the routing
// exchange or the framework phases that moves one output bit, one PRNG draw
// or one message shows up here.
func TestColdQueriesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("three cold canonical runs on er800")
	}
	snap := er800Snapshot(t)
	for _, pin := range []struct {
		family   string
		seed     int64
		sha256   string
		rounds   int
		messages int64
		words    int64
	}{
		{"matching", 7, "81aa34dd4ab5c2dd337d087a322debf979d227cafbf3dfd5a4fe59d38cbb95e8", 295594, 6840191, 17318719},
		{"mis", 8, "6c21ab48237d77d6dda25499b6d63e7e1a01b145be0b831bc1c572dfd8a50ac1", 295595, 6863226, 17427962},
		{"clustering", 9, "e5c40b068ff178d0ef6ca31bad680c6f45927d3f636d5792caf3903adbdd532d", 295594, 6921273, 17724129},
	} {
		res, err := runQuery(snap, pin.family, Params{Seed: pin.seed}.withDefaults(pin.family))
		if err != nil {
			t.Fatalf("%s: %v", pin.family, err)
		}
		sum := sha256.Sum256(newEncResult(res).full)
		acc := res.Accounting
		if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
			t.Errorf("%s seed %d: result sha256 %s, want %s", pin.family, pin.seed, got, pin.sha256)
		}
		if acc.Rounds != pin.rounds || acc.Messages != pin.messages || acc.Words != pin.words {
			t.Errorf("%s seed %d: %d rounds, %d messages, %d words; want %d, %d, %d", pin.family, pin.seed,
				acc.Rounds, acc.Messages, acc.Words, pin.rounds, pin.messages, pin.words)
		}
	}
}

// BenchmarkColdQueries times cold canonical runs on er800 in process. One
// warm-up query prepares the snapshot's framework prefix; each op then runs
// one framework family, rotating through the three, with a seed no other op
// uses. Besides ns/op it reports ns per walk message: the time over the
// messages the ops' gather–solve–disseminate exchanges sent.
func BenchmarkColdQueries(b *testing.B) {
	snap := er800Snapshot(b)
	families := []string{"matching", "mis", "clustering"}
	if _, err := runQuery(snap, families[0], Params{}.withDefaults(families[0])); err != nil {
		b.Fatal(err)
	}
	var walkMsgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		family := families[i%len(families)]
		res, err := runQuery(snap, family, Params{Seed: int64(1000 + i)}.withDefaults(family))
		if err != nil {
			b.Fatal(err)
		}
		for _, ph := range res.Accounting.Phases {
			if ph.Name == "gather-solve-disseminate" {
				walkMsgs += ph.Messages
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(walkMsgs), "ns/walkmsg")
}
