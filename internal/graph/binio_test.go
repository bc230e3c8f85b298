package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func binaryTestGraphs(t testing.TB) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	return map[string]*Graph{
		"grid":     Grid(5, 8),
		"planar":   RandomMaximalPlanar(90, rng),
		"weighted": WithRandomWeights(TriangulatedGrid(7, 4), 200, rng),
		"signed":   WithRandomSigns(Hypercube(5), 0.3, rng),
		"empty":    NewBuilder(6).Graph(),
		"novertex": NewBuilder(0).Graph(),
		"single":   FromEdges(3, []Edge{{U: 0, V: 2}}),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range binaryTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g); err != nil {
				t.Fatalf("WriteBinary: %v", err)
			}
			lay := layoutFor(g.N(), g.M(), g.Weighted(), g.Signed())
			if int64(buf.Len()) != lay.total {
				t.Fatalf("file is %d bytes, layout says %d", buf.Len(), lay.total)
			}
			got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadBinary: %v", err)
			}
			requireIdenticalGraphs(t, got, g)

			// The format is deterministic: writing again is byte-identical.
			var buf2 bytes.Buffer
			if err := WriteBinary(&buf2, got); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("binary encoding is not deterministic")
			}

			// And it agrees with the text codec on graph content.
			var text, text2 bytes.Buffer
			if err := WriteEdgeList(&text, g); err != nil {
				t.Fatalf("WriteEdgeList: %v", err)
			}
			if err := WriteEdgeList(&text2, got); err != nil {
				t.Fatalf("WriteEdgeList(decoded): %v", err)
			}
			if !bytes.Equal(text.Bytes(), text2.Bytes()) {
				t.Fatal("text rendering differs after a binary round trip")
			}
		})
	}
}

func TestOpenMappedMatchesReadBinary(t *testing.T) {
	dir := t.TempDir()
	for name, g := range binaryTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".bin")
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g); err != nil {
				t.Fatalf("WriteBinary: %v", err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatalf("write file: %v", err)
			}
			mg, err := OpenMapped(path)
			if err != nil {
				t.Fatalf("OpenMapped: %v", err)
			}
			requireIdenticalGraphs(t, mg.Graph, g)

			// Clone detaches from the mapping and survives Close.
			cp := mg.Graph.Clone()
			if err := mg.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			requireIdenticalGraphs(t, cp, g)
			// Close is idempotent.
			if err := mg.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestOpenMappedIsZeroCopy checks the linux fast path aliases the file rather
// than copying it: opening must not allocate memory proportional to the edge
// section. (On fallback platforms the test is skipped.)
func TestOpenMappedIsZeroCopy(t *testing.T) {
	if !canAlias() {
		t.Skip("host cannot alias the on-disk layout")
	}
	g := Grid(200, 200) // ~80k edges, ~2.5 MB on disk
	path := filepath.Join(t.TempDir(), "grid.bin")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() {
		mg, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if mg.Graph.M() != g.M() {
			t.Fatal("wrong graph")
		}
		mg.Close()
	}
	allocs := testing.AllocsPerRun(10, open)
	// Open cost is a handful of descriptors and headers, never per-edge.
	if allocs > 64 {
		t.Fatalf("OpenMapped allocates %.0f objects; expected O(1)", allocs)
	}
	// An open is header validation plus pointer arithmetic, never a scan,
	// so it finishes in under 10 ms whatever the edge count (best of 3).
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		open()
		best = min(best, time.Since(start))
	}
	if best >= 10*time.Millisecond {
		t.Errorf("OpenMapped took %v (best of 3), want < 10ms", best)
	}
	// A real mapping points into the page cache rather than copying it:
	// under one heap byte per edge.
	if MapIsZeroCopy() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		open()
		runtime.ReadMemStats(&after)
		if perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.M()); perEdge >= 1 {
			t.Errorf("OpenMapped allocated %.2f heap bytes per edge, want < 1", perEdge)
		}
	}
}

// TestBinaryLoadFasterThanText pins the point of the binary format on a
// streamed Erdős–Rényi graph of ~250k edges (mean degree 8): loading it is
// at least 5× faster per edge than parsing the text edge list (best of 3,
// open included), and the file takes at most 40 bytes per edge (the CSR
// sections sum to ~33).
func TestBinaryLoadFasterThanText(t *testing.T) {
	const n = 62_500
	g := ErdosRenyiStream(n, 8/float64(n), 7, 0)
	dir := t.TempDir()
	write := func(name string, enc func(io.Writer, *Graph) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	textPath := write("er.txt", WriteEdgeList)
	binPath := write("er.bin", WriteBinary)
	bestLoad := func(path string, read func(io.Reader) (*Graph, error)) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			runtime.GC()
			start := time.Now()
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			h, err := read(f)
			f.Close()
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("load %s: %v", path, err)
			}
			if h.M() != g.M() {
				t.Fatalf("load %s: m = %d, want %d", path, h.M(), g.M())
			}
			best = min(best, elapsed)
		}
		return best
	}
	text := bestLoad(textPath, ReadEdgeList)
	bin := bestLoad(binPath, ReadBinary)
	ratio := float64(text) / float64(bin)
	t.Logf("%d edges: text %v, binary %v (%.1fx)", g.M(), text, bin, ratio)
	if ratio < 5 {
		t.Errorf("binary load only %.1fx faster than text at %d edges (%v vs %v), want >= 5x",
			ratio, g.M(), bin, text)
	}
	fi, err := os.Stat(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if perEdge := float64(fi.Size()) / float64(g.M()); perEdge > 40 {
		t.Errorf("binary encoding is %.1f file bytes per edge, want <= 40", perEdge)
	}
}

func TestBinaryErrors(t *testing.T) {
	g := WithRandomWeights(Grid(4, 4), 9, rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	reread := func(b []byte) error {
		_, err := ReadBinary(bytes.NewReader(b))
		return err
	}
	mutate := func(idx int, b byte) []byte {
		c := append([]byte(nil), valid...)
		c[idx] ^= b
		return c
	}

	t.Run("bad-magic", func(t *testing.T) {
		if err := reread(mutate(0, 0xff)); err == nil {
			t.Fatal("expected magic error")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		if err := reread(mutate(8, 0x02)); err == nil {
			t.Fatal("expected version error")
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		if err := reread(valid[:binHeaderSize-8]); err == nil {
			t.Fatal("expected truncation error")
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		if err := reread(valid[:len(valid)-8]); err == nil {
			t.Fatal("expected truncation error")
		}
	})
	t.Run("payload-bit-flip", func(t *testing.T) {
		if err := reread(mutate(len(valid)-1, 0x01)); err == nil {
			t.Fatal("expected checksum error")
		}
	})
	t.Run("header-stat-flip", func(t *testing.T) {
		// maxW lives in the checksummed header range [40,48).
		if err := reread(mutate(41, 0x10)); err == nil {
			t.Fatal("expected checksum error")
		}
	})
	t.Run("reserved-nonzero", func(t *testing.T) {
		if err := reread(mutate(60, 0x01)); err == nil {
			t.Fatal("expected reserved-field error")
		}
	})
	t.Run("crc-valid-but-corrupt-structure", func(t *testing.T) {
		// Corrupt an adjacency index, then forge a matching checksum: the
		// structural validator has to catch what the CRC no longer can.
		c := append([]byte(nil), valid...)
		lay := layoutFor(g.N(), g.M(), g.Weighted(), g.Signed())
		binary.LittleEndian.PutUint32(c[lay.offAdjTo:], uint32(g.N()+7))
		crc := crc32.New(castagnoli)
		crc.Write(c[0:56])
		crc.Write(c[binHeaderSize:])
		binary.LittleEndian.PutUint32(c[56:60], crc.Sum32())
		err := reread(c)
		if err == nil {
			t.Fatal("expected structural validation error")
		}
	})
	t.Run("openmapped-wrong-size", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "trunc.bin")
		if err := os.WriteFile(path, valid[:len(valid)-4], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(path); err == nil {
			t.Fatal("expected size-mismatch error")
		}
	})
	t.Run("openmapped-tiny-file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tiny.bin")
		if err := os.WriteFile(path, []byte("EXPGR"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(path); err == nil {
			t.Fatal("expected header-size error")
		}
	})
}

func TestLoadFileSniffsFormat(t *testing.T) {
	g := WithRandomSigns(Torus(4, 6), 0.5, rand.New(rand.NewSource(9)))
	dir := t.TempDir()

	binPath := filepath.Join(dir, "g.bin")
	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	txtPath := filepath.Join(dir, "g.txt")
	var txt bytes.Buffer
	if err := WriteEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	fromBin, err := LoadFile(binPath)
	if err != nil {
		t.Fatalf("LoadFile(bin): %v", err)
	}
	fromTxt, err := LoadFile(txtPath)
	if err != nil {
		t.Fatalf("LoadFile(txt): %v", err)
	}
	requireIdenticalGraphs(t, fromBin, g)
	requireIdenticalGraphs(t, fromTxt, g)

	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// FuzzBinaryRoundTrip drives both codecs from arbitrary bytes. Inputs that
// parse as a text edge list are pushed through text → binary → mmap → text
// and must come back byte-identical; arbitrary bytes fed to the binary reader
// (including corrupt headers and truncated files) must error cleanly, never
// panic.
func FuzzBinaryRoundTrip(f *testing.F) {
	seedGraphs := []*Graph{
		Grid(3, 4),
		WithRandomWeights(Path(6), 9, rand.New(rand.NewSource(1))),
		WithRandomSigns(Cycle(5), 0.5, rand.New(rand.NewSource(2))),
		NewBuilder(2).Graph(),
	}
	for _, g := range seedGraphs {
		var txt, bin bytes.Buffer
		if err := WriteEdgeList(&txt, g); err != nil {
			f.Fatal(err)
		}
		if err := WriteBinary(&bin, g); err != nil {
			f.Fatal(err)
		}
		f.Add(txt.Bytes())
		f.Add(bin.Bytes())
	}
	f.Add([]byte("EXPGRCSR garbage"))
	f.Add([]byte("3 2\n0 1\n1 2\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A tiny text input may legitimately declare an enormous vertex
		// count ("999999999 0\n") and cost gigabytes of adjOff; cap the
		// leading integer so the fuzzer probes parsing, not allocation.
		v := 0
		for _, c := range data {
			if c < '0' || c > '9' {
				break
			}
			if v = v*10 + int(c-'0'); v > 1<<20 {
				return
			}
		}

		// Arbitrary bytes through the binary reader: error or succeed, no
		// panics, and any accepted graph must re-encode deterministically.
		if g, err := ReadBinary(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := WriteBinary(&out, g); err != nil {
				t.Fatalf("re-encode of accepted binary input: %v", err)
			}
		}

		// Bytes that parse as the text format take the full pipeline:
		// text → binary → mmap → text, byte-identical at the end.
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var canonical bytes.Buffer
		if err := WriteEdgeList(&canonical, g); err != nil {
			t.Fatalf("canonical text render: %v", err)
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, g); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mg, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("OpenMapped of freshly written file: %v", err)
		}
		defer mg.Close()
		var final bytes.Buffer
		if err := WriteEdgeList(&final, mg.Graph); err != nil {
			t.Fatalf("text render of mapped graph: %v", err)
		}
		if !bytes.Equal(canonical.Bytes(), final.Bytes()) {
			t.Fatal("text → binary → mmap → text round trip is not byte-identical")
		}
	})
}
