// Command graphgen generates a graph from any of the repository's workload
// families and writes it as a text edge list (the format cmd/decompose -in
// reads), the binary CSR format of internal/graph (loadable with mmap), or
// Graphviz DOT.
//
// Usage:
//
//	graphgen -family planar -n 100 -seed 7 -format edgelist > g.txt
//	graphgen -family er -n 10000000 -deg 8 -stream -format bin -o g.bin
//	graphgen -family torus -n 64 -format dot | dot -Tpng > g.png
//
// -o writes atomically (temp file + rename), so a crash or a full disk never
// leaves a truncated graph behind at the target path. -stream switches the
// er, planar, and randplanar families to the streaming generators, which skip
// the Builder's pending-edge buffer and assemble CSR arrays in parallel
// (-workers); for er the streaming sampler draws from a different (equally
// distributed) random stream than the buffered one.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"expandergap/internal/graph"
)

func main() {
	familyFlag := flag.String("family", "grid", "family: grid|trigrid|torus|doubletorus|planar|randplanar|outer|tree|ktree|hypercube|er|cycle|complete")
	nFlag := flag.Int("n", 64, "approximate vertex count")
	seedFlag := flag.Int64("seed", 1, "random seed")
	formatFlag := flag.String("format", "edgelist", "output format: edgelist, bin, or dot")
	outFlag := flag.String("o", "", "output path (atomic write; default stdout)")
	streamFlag := flag.Bool("stream", false, "use the streaming generators for er/planar/randplanar")
	workersFlag := flag.Int("workers", 0, "parallel workers for streaming generation (0 = GOMAXPROCS)")
	degFlag := flag.Float64("deg", 4, "er family: target average degree (p = deg/n)")
	keepFlag := flag.Float64("keep", 0.6, "randplanar family: fraction of triangulation edges kept")
	weightsFlag := flag.Int64("weights", 0, "attach uniform random weights in [1,W] (0 = unweighted)")
	signsFlag := flag.Float64("signs", -1, "attach random signs with P[+] = value (negative = unsigned)")
	flag.Parse()

	cfg := genConfig{
		n:       *nFlag,
		seed:    *seedFlag,
		stream:  *streamFlag,
		workers: *workersFlag,
		deg:     *degFlag,
		keep:    *keepFlag,
	}
	g, err := build(*familyFlag, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(*seedFlag))
	if *weightsFlag > 0 {
		g = graph.WithRandomWeights(g, *weightsFlag, rng)
	} else if *signsFlag >= 0 {
		g = graph.WithRandomSigns(g, *signsFlag, rng)
	}

	write := func(w io.Writer) error {
		switch *formatFlag {
		case "edgelist":
			return graph.WriteEdgeList(w, g)
		case "bin":
			return graph.WriteBinary(w, g)
		case "dot":
			return graph.WriteDOT(w, g, nil)
		default:
			return fmt.Errorf("unknown format %q", *formatFlag)
		}
	}
	if err := emit(*outFlag, write); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
}

// emit writes through fn to stdout, or atomically to path: the output lands
// in a same-directory temp file that is fsynced and renamed over the target
// only after every write has succeeded, and is removed on any failure.
func emit(path string, fn func(io.Writer) error) error {
	if path == "" {
		return fn(os.Stdout)
	}
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := fn(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	// CreateTemp opens 0600; published graphs should be world-readable.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // success path: nothing left for the deferred cleanup
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

type genConfig struct {
	n       int
	seed    int64
	stream  bool
	workers int
	deg     float64
	keep    float64
}

func build(family string, cfg genConfig) (*graph.Graph, error) {
	n := cfg.n
	rng := rand.New(rand.NewSource(cfg.seed))
	side := int(math.Sqrt(float64(n)))
	if side < 3 {
		side = 3
	}
	p := cfg.deg / float64(n)
	switch family {
	case "grid":
		return graph.Grid(side, side), nil
	case "trigrid":
		return graph.TriangulatedGrid(side, side), nil
	case "torus":
		return graph.Torus(side, side), nil
	case "doubletorus":
		return graph.DoubleTorus(side), nil
	case "planar":
		if cfg.stream {
			return graph.RandomMaximalPlanarStream(n, rng, cfg.workers), nil
		}
		return graph.RandomMaximalPlanar(n, rng), nil
	case "randplanar":
		if cfg.stream {
			return graph.RandomPlanarStream(n, cfg.keep, rng, cfg.workers), nil
		}
		return graph.RandomPlanar(n, cfg.keep, rng), nil
	case "outer":
		return graph.RandomOuterplanar(n, rng), nil
	case "tree":
		return graph.RandomTree(n, rng), nil
	case "ktree":
		return graph.KTree(n, 3, rng), nil
	case "hypercube":
		d := int(math.Round(math.Log2(float64(n))))
		if d < 2 {
			d = 2
		}
		return graph.Hypercube(d), nil
	case "er":
		if cfg.stream {
			return graph.ErdosRenyiStream(n, p, cfg.seed, cfg.workers), nil
		}
		return graph.ErdosRenyi(n, p, rng), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "complete":
		return graph.Complete(n), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}
