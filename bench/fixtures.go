package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"expandergap/internal/graph"
)

// fixture is one named benchmark input: the generator call that builds it and
// the shape and binary digest it must reproduce. A generator change that
// alters a fixture fails materialize, so a workload cannot drift silently.
type fixture struct {
	Name string
	Gen  func() *graph.Graph
	N, M int
	// SHA256 is the hex digest of the fixture's graph.WriteBinary encoding.
	SHA256 string
}

// fixtures is the registry every workload, the traced pass and the smoke
// test draw their graphs from.
var fixtures = []fixture{
	{
		// The serve smoke graph: G(n, p) with mean degree 6.
		Name:   "er800",
		Gen:    func() *graph.Graph { return graph.ErdosRenyiStream(800, 6.0/800, 11, 0) },
		N:      800,
		M:      2609,
		SHA256: "956657d5677343f54c5ace80adac838c41bedbea912c32ef05ce86015dae4a1f",
	},
	{
		// A random planar graph, hence H-minor-free: the paper's target class.
		Name:   "planar20k",
		Gen:    func() *graph.Graph { return graph.RandomPlanarStream(20000, 0.6, rand.New(rand.NewSource(3)), 0) },
		N:      20000,
		M:      36516,
		SHA256: "404c1cca360eb0e43f76b78763d47a1ab9e863f7cda14cf9f1b9e120c5bca917",
	},
	{
		// A tiny grid for the smoke test.
		Name:   "grid6",
		Gen:    func() *graph.Graph { return graph.Grid(6, 6) },
		N:      36,
		M:      60,
		SHA256: "619b2327980605edf8f0e80f4f6edebea24e4e8af091bc2eba7afac68e7439e2",
	},
}

func fixtureByName(name string) (fixture, error) {
	for _, f := range fixtures {
		if f.Name == name {
			return f, nil
		}
	}
	return fixture{}, fmt.Errorf("unknown fixture %q", name)
}

// materialize generates the fixture, checks it against its declared shape
// and digest, and writes its binary encoding to dir/<name>.bin.
func (f fixture) materialize(dir string) (*graph.Graph, string, error) {
	g := f.Gen()
	if g.N() != f.N || g.M() != f.M {
		return nil, "", fmt.Errorf("fixture %s: generated n=%d m=%d, registry declares n=%d m=%d", f.Name, g.N(), g.M(), f.N, f.M)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return nil, "", fmt.Errorf("fixture %s: encoding: %w", f.Name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != f.SHA256 {
		return nil, "", fmt.Errorf("fixture %s: binary sha256 %s, registry declares %s", f.Name, got, f.SHA256)
	}
	path := filepath.Join(dir, f.Name+".bin")
	// An identical file is left alone: it may be mapped, and rewriting a
	// mapped file in place can fault its readers.
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, buf.Bytes()) {
		return g, path, nil
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, "", fmt.Errorf("fixture %s: %w", f.Name, err)
	}
	return g, path, nil
}
