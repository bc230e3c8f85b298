package integration

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
)

// fingerprint hashes the full observable output of Decompose (cluster count,
// per-vertex assignment, removed-edge list) with FNV-64a — the same digest
// internal/expander's golden tests pin. Equal fingerprints mean the
// decompositions are identical cluster for cluster and edge for edge.
func fingerprint(d *expander.Decomposition) uint64 {
	h := fnv.New64a()
	put := func(x int) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(len(d.Clusters))
	for _, id := range d.Assignment {
		put(id)
	}
	put(len(d.Removed))
	for _, e := range d.Removed {
		put(e)
	}
	return h.Sum64()
}

// loadAllWays writes g in both formats and loads it back through every path:
// text parse, binary read, and mmap. The caller receives one graph per path.
func loadAllWays(t *testing.T, g *graph.Graph) map[string]*graph.Graph {
	t.Helper()
	dir := t.TempDir()
	txtPath := filepath.Join(dir, "g.txt")
	binPath := filepath.Join(dir, "g.bin")
	var txt, bin bytes.Buffer
	if err := graph.WriteEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromText, err := graph.LoadFile(txtPath)
	if err != nil {
		t.Fatalf("text load: %v", err)
	}
	fromBin, err := graph.LoadFile(binPath)
	if err != nil {
		t.Fatalf("binary load: %v", err)
	}
	mapped, err := graph.OpenMapped(binPath)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { mapped.Close() })
	return map[string]*graph.Graph{
		"text":   fromText,
		"binary": fromBin,
		"mmap":   mapped.Graph,
	}
}

// TestRoundTripDecompositionFingerprint drives the full substrate contract:
// a graph serialized to disk and loaded back through any path — text parse,
// binary read, or mmap aliasing — must be indistinguishable to the
// decomposition stack, producing bit-identical clusters.
func TestRoundTripDecompositionFingerprint(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":     graph.ErdosRenyiStream(3000, 8.0/3000, 17, 0),
		"planar": graph.RandomMaximalPlanarStream(2000, rand.New(rand.NewSource(5)), 0),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ref, err := expander.Decompose(g, 0.3, expander.Options{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(ref)
			for path, loaded := range loadAllWays(t, g) {
				d, err := expander.Decompose(loaded, 0.3, expander.Options{Seed: 9})
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got := fingerprint(d); got != want {
					t.Errorf("%s-loaded graph decomposes differently: %#x vs %#x", path, got, want)
				}
			}
		})
	}
}

// TestMappedGraphSimulatorSteadyStateZeroAlloc runs the CONGEST simulator's
// steady-state round loop on an mmap-backed graph: the zero-allocation
// contract of the Step path must hold when every adjacency access goes
// through file-mapped memory.
func TestMappedGraphSimulatorSteadyStateZeroAlloc(t *testing.T) {
	g := graph.Grid(16, 16)
	dir := t.TempDir()
	binPath := filepath.Join(dir, "grid.bin")
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.OpenMapped(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()

	sim := congest.NewSimulator(mg.Graph, congest.Config{Seed: 1})
	ex := sim.Start(func(v *congest.Vertex) congest.Handler {
		val := int64(v.ID())
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) { v.BroadcastWords(val) },
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				v.BroadcastWords(val)
			},
		}
	})
	defer ex.Close()
	for i := 0; i < 4; i++ {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step on an mmap-backed graph allocates %.1f objects/round, want 0", allocs)
	}
}

// TestHugeGraphRoundTrip is the 10M-edge acceptance run: generation,
// both encodings, the three load paths, and decomposition fingerprints, at
// the scale the substrate was built for. It costs several GB of temp disk
// and minutes of CPU, so it only runs when EXPANDERGAP_HUGE=1 is set.
func TestHugeGraphRoundTrip(t *testing.T) {
	if os.Getenv("EXPANDERGAP_HUGE") == "" {
		t.Skip("set EXPANDERGAP_HUGE=1 to run the 10M-edge acceptance test")
	}
	g := graph.ErdosRenyiStream(2_500_000, 8.0/2_500_000, 7, 0)
	t.Logf("generated n=%d m=%d", g.N(), g.M())
	if g.M() < 9_000_000 {
		t.Fatalf("expected ~10M edges, got %d", g.M())
	}
	loaded := loadAllWays(t, g)
	for path, lg := range loaded {
		if lg.N() != g.N() || lg.M() != g.M() {
			t.Fatalf("%s: loaded n=%d m=%d, want n=%d m=%d", path, lg.N(), lg.M(), g.N(), g.M())
		}
	}
	// Decompose a deterministic induced patch of the graph through each load
	// path: full-graph decomposition at 10M edges is a multi-hour run, and
	// patch identity across load paths already requires every adjacency
	// array to agree bit for bit.
	verts := make([]int, 50_000)
	for i := range verts {
		verts[i] = i * 3
	}
	patch := func(gg *graph.Graph) *expander.Decomposition {
		sub, _ := gg.Induce(verts).Materialize()
		d, err := expander.Decompose(sub, 0.3, expander.Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := fingerprint(patch(g))
	for path, lg := range loaded {
		if got := fingerprint(patch(lg)); got != want {
			t.Errorf("%s: patch decomposition fingerprint %#x, want %#x", path, got, want)
		}
	}
}
