// Command decompose generates (or reads) a graph, runs an (ε, φ) expander
// decomposition, and prints cluster statistics and contract verification.
//
// Usage:
//
//	decompose [-family grid|trigrid|torus|planar|outer|tree|hypercube|er]
//	          [-n 64] [-eps 0.3] [-seed 1] [-workers 1] [-distributed]
//	          [-in file] [-mmap]
//
// With -in, the graph is read from a file in either on-disk format (the text
// edge list or the binary CSR format, sniffed by magic). -mmap additionally
// memory-maps a binary file instead of copying it into the heap — the way to
// open multi-hundred-megabyte graphs instantly.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"expandergap/internal/congest"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
)

func main() {
	familyFlag := flag.String("family", "grid", "graph family to generate")
	nFlag := flag.Int("n", 64, "approximate vertex count")
	epsFlag := flag.Float64("eps", 0.3, "edge-removal budget ε")
	seedFlag := flag.Int64("seed", 1, "random seed")
	workersFlag := flag.Int("workers", 1, "decomposer goroutine pool size (the decomposition is the same at every value)")
	distFlag := flag.Bool("distributed", false, "use the distributed (MPX+refine) decomposer")
	inFlag := flag.String("in", "", "read graph from a file (text edge list or binary CSR) instead of generating")
	mmapFlag := flag.Bool("mmap", false, "memory-map the -in file (binary CSR format only)")
	flag.Parse()

	g, err := buildGraph(*familyFlag, *nFlag, *seedFlag, *inFlag, *mmapFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decompose: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("graph: %v (density %.3f, diameter %d)\n", g, g.EdgeDensity(), g.Diameter())

	var dec *expander.Decomposition
	if *distFlag {
		var metrics congest.Metrics
		dec, metrics, err = expander.DistributedDecompose(g, congest.Config{Seed: *seedFlag}, *epsFlag)
		if err == nil {
			fmt.Printf("distributed stage: %d rounds, %d messages, %d bits\n",
				metrics.Rounds, metrics.Messages, metrics.TotalBits(g.N()))
		}
	} else {
		dec, err = expander.Decompose(g, *epsFlag, expander.Options{Seed: *seedFlag, Workers: *workersFlag})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "decompose: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("clusters: %d  removed edges: %d (%.4f of |E|, budget %.4f)  φ-target: %.5f\n",
		len(dec.Clusters), len(dec.Removed), dec.CutFraction(g), *epsFlag, dec.Phi)
	fmt.Print(histogram(dec))
	fmt.Printf("stats: %v\n", dec.ComputeStats(g))
	rep := dec.Verify(g, rand.New(rand.NewSource(*seedFlag)))
	fmt.Printf("verify: cutOK=%v conductanceOK=%v (min Φ=%.5f, exact=%v) connected=%v\n",
		rep.CutOK, rep.ConductanceOK, rep.MinConductance, rep.Exact, rep.Connected)
}

// histogram renders the cluster-size histogram: the clusters counted per
// power-of-two bucket, log₂ of the size rounded to the nearest integer, one
// line per nonempty bucket in ascending order.
func histogram(dec *expander.Decomposition) string {
	var sb strings.Builder
	sb.WriteString("cluster-size histogram (by power-of-two bucket):\n")
	hist := map[int]int{}
	top := 0
	for _, c := range dec.Clusters {
		b := bucket(len(c))
		hist[b]++
		top = max(top, b)
	}
	for b := 1; b <= top; b *= 2 {
		if hist[b] > 0 {
			fmt.Fprintf(&sb, "  ~%4d vertices: %d clusters\n", b, hist[b])
		}
	}
	return sb.String()
}

func bucket(size int) int {
	return 1 << int(math.Round(math.Log2(float64(size))))
}

func buildGraph(family string, n int, seed int64, in string, useMmap bool) (*graph.Graph, error) {
	if in != "" {
		if useMmap {
			// The mapping stays open for the process lifetime; the kernel
			// reclaims it at exit.
			mg, err := graph.OpenMapped(in)
			if err != nil {
				return nil, err
			}
			return mg.Graph, nil
		}
		return graph.LoadFile(in)
	}
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Sqrt(float64(n)))
	if side < 3 {
		side = 3
	}
	switch family {
	case "grid":
		return graph.Grid(side, side), nil
	case "trigrid":
		return graph.TriangulatedGrid(side, side), nil
	case "torus":
		return graph.Torus(side, side), nil
	case "planar":
		return graph.RandomMaximalPlanar(n, rng), nil
	case "outer":
		return graph.RandomOuterplanar(n, rng), nil
	case "tree":
		return graph.RandomTree(n, rng), nil
	case "hypercube":
		d := int(math.Round(math.Log2(float64(n))))
		if d < 2 {
			d = 2
		}
		return graph.Hypercube(d), nil
	case "er":
		return graph.ErdosRenyi(n, 4/float64(n), rng), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}
