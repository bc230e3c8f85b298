// Command simrun executes one distributed algorithm on a generated network
// and prints its communication metrics and solution quality — a quick way to
// poke at any algorithm in the repository from the command line.
//
// Usage:
//
//	simrun -algo maxis|mcm|mwm|corrclust|ldd|proptest|luby|greedy|pivot|mpx
//	       [-family grid|trigrid|torus|planar|tree] [-n 64] [-eps 0.25] [-seed 1]
//	       [-in file] [-mmap]
//	       [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	       [-trace out.jsonl] [-report out.json] [-phases]
//
// With -in, the network graph is read from a file (text edge list or binary
// CSR, sniffed by magic) instead of being generated; -mmap memory-maps a
// binary file so even very large networks open instantly.
//
// -trace streams one JSONL event per simulated round (round, phase stack,
// vertices stepped — halted and sleeping vertices are excluded — messages,
// words, bits); -report writes the phase tree
// with per-phase totals and message-size histograms as JSON; -phases prints
// the same tree as a table on stdout.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"

	"expandergap/internal/apps/corrclust"
	"expandergap/internal/apps/ldd"
	"expandergap/internal/apps/matching"
	"expandergap/internal/apps/maxis"
	"expandergap/internal/apps/proptest"
	"expandergap/internal/congest"
	"expandergap/internal/core"
	"expandergap/internal/expander"
	"expandergap/internal/graph"
	"expandergap/internal/minor"
	"expandergap/internal/solvers"
)

func main() {
	algoFlag := flag.String("algo", "maxis", "algorithm to run")
	familyFlag := flag.String("family", "grid", "graph family")
	nFlag := flag.Int("n", 64, "approximate vertex count")
	epsFlag := flag.Float64("eps", 0.25, "approximation / decomposition parameter")
	seedFlag := flag.Int64("seed", 1, "random seed")
	inFlag := flag.String("in", "", "read the network from a file (text edge list or binary CSR) instead of generating")
	mmapFlag := flag.Bool("mmap", false, "memory-map the -in file (binary CSR format only)")
	detFlag := flag.Bool("deterministic", false, "use the deterministic (tree-routing) framework track")
	distFlag := flag.Bool("distributed", false, "use the distributed (MPX+refine) decomposer")
	faultFlag := flag.Float64("faults", 0, "message drop probability (failure-path exploration)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFlag := flag.String("trace", "", "write a per-round JSONL trace to this file")
	reportFlag := flag.String("report", "", "write the phase-tree report JSON to this file")
	phasesFlag := flag.Bool("phases", false, "print the phase tree after the run")
	flag.Parse()

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "simrun: %v\n", ferr)
			os.Exit(1)
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			fmt.Fprintf(os.Stderr, "simrun: %v\n", perr)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, ferr := os.Create(*memProfile)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "simrun: %v\n", ferr)
				return
			}
			defer f.Close()
			runtime.GC()
			if perr := pprof.WriteHeapProfile(f); perr != nil {
				fmt.Fprintf(os.Stderr, "simrun: %v\n", perr)
			}
		}()
	}

	rng := rand.New(rand.NewSource(*seedFlag))
	g, gerr := loadOrBuild(*inFlag, *mmapFlag, *familyFlag, *nFlag, rng)
	if gerr != nil {
		fmt.Fprintf(os.Stderr, "simrun: %v\n", gerr)
		os.Exit(2)
	}
	cfg := congest.Config{Seed: *seedFlag, FaultRate: *faultFlag}

	var obs *congest.Observer
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *traceFlag != "" || *reportFlag != "" || *phasesFlag {
		obs = congest.NewObserver()
		cfg.Obs = obs
		if *traceFlag != "" {
			f, ferr := os.Create(*traceFlag)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "simrun: %v\n", ferr)
				os.Exit(1)
			}
			traceFile = f
			traceBuf = bufio.NewWriterSize(f, 1<<20)
			obs.EnableTrace(traceBuf, 4096)
		}
	}
	coreOpts := core.Options{Deterministic: *detFlag}
	if *distFlag {
		coreOpts.Decomposer = core.DistributedDecomposer
	}
	fmt.Printf("graph: %v\n", g)

	var err error
	switch *algoFlag {
	case "maxis":
		var res *maxis.Result
		res, err = maxis.Approximate(g, maxis.Options{Eps: *epsFlag, Cfg: cfg, Core: coreOpts})
		if err == nil {
			ratio, exact := maxis.Ratio(g, res.Set)
			printMetrics(res.Solution.Metrics, g.N())
			fmt.Printf("independent set: %d vertices (ratio %.4f, exact-opt=%v, dropped %d)\n",
				len(res.Set), ratio, exact, res.Dropped)
		}
	case "mcm":
		var res *matching.Result
		res, err = matching.ApproximateMCM(g, matching.Options{Eps: *epsFlag, Cfg: cfg, Core: coreOpts})
		if err == nil {
			opt := solvers.MatchingSize(solvers.MaximumMatching(g))
			printMetrics(res.Solution.Metrics, g.N())
			fmt.Printf("matching: %d pairs (opt %d, ratio %.4f)\n",
				res.Size(), opt, float64(res.Size())/math.Max(float64(opt), 1))
		}
	case "mwm":
		wg := graph.WithRandomWeights(g, 100, rng)
		var res *matching.Result
		res, err = matching.ApproximateMWM(wg, matching.Options{Eps: *epsFlag, Cfg: cfg, Core: coreOpts})
		if err == nil {
			printMetrics(res.Solution.Metrics, wg.N())
			fmt.Printf("weighted matching: weight %d (%d pairs)\n", res.Weight(wg), res.Size())
		}
	case "corrclust":
		sg := graph.WithRandomSigns(g, 0.6, rng)
		var res *corrclust.Result
		res, err = corrclust.Approximate(sg, corrclust.Options{Eps: *epsFlag, Cfg: cfg, Core: coreOpts})
		if err == nil {
			printMetrics(res.Solution.Metrics, sg.N())
			fmt.Printf("correlation clustering: score %d (γ-bound %d, |E| %d)\n",
				res.Score, corrclust.GammaLowerBound(sg), sg.M())
		}
	case "ldd":
		var res *ldd.Result
		res, err = ldd.Decompose(g, ldd.Options{Eps: *epsFlag, Cfg: cfg, Core: coreOpts})
		if err == nil {
			printMetrics(res.Solution.Metrics, g.N())
			fmt.Printf("low-diameter decomposition: max diameter %d (D·ε = %.3f), cut %.4f\n",
				res.MaxDiameter, float64(res.MaxDiameter)**epsFlag, res.CutFraction)
		}
	case "proptest":
		var v *proptest.Verdict
		v, err = proptest.Test(g, minor.Planarity(), proptest.Options{Eps: *epsFlag, Cfg: cfg, Core: coreOpts})
		if err == nil {
			printMetrics(v.Solution.Metrics, g.N())
			fmt.Printf("planarity test: all-accept=%v (input planar: %v)\n",
				v.AllAccept, minor.IsPlanar(g))
		}
	case "luby":
		var set []int
		var m congest.Metrics
		set, m, err = maxis.LubyMIS(g, cfg)
		if err == nil {
			printMetrics(m, g.N())
			fmt.Printf("Luby MIS: %d vertices\n", len(set))
		}
	case "greedy":
		var res *matching.Result
		var m congest.Metrics
		res, m, err = matching.DistributedGreedy(g, cfg)
		if err == nil {
			printMetrics(m, g.N())
			fmt.Printf("greedy matching: %d pairs\n", res.Size())
		}
	case "pivot":
		sg := graph.WithRandomSigns(g, 0.6, rng)
		var labels []int
		var m congest.Metrics
		labels, m, err = corrclust.DistributedPivot(sg, cfg)
		if err == nil {
			printMetrics(m, sg.N())
			fmt.Printf("pivot clustering: score %d\n", solvers.CorrelationScore(sg, labels))
		}
	case "mpx":
		var res expander.MPXResult
		var m congest.Metrics
		res, m, err = expander.MPX(g, cfg, *epsFlag)
		if err == nil {
			printMetrics(m, g.N())
			clusters := res.Assignment.Clusters()
			fmt.Printf("MPX clustering: %d clusters\n", len(clusters))
		}
	default:
		fmt.Fprintf(os.Stderr, "simrun: unknown algorithm %q\n", *algoFlag)
		os.Exit(2)
	}
	// Flush observability outputs even when the run failed: a partial trace
	// is exactly what a failed run needs.
	if traceBuf != nil {
		if ferr := obs.Flush(); ferr != nil {
			fmt.Fprintf(os.Stderr, "simrun: trace: %v\n", ferr)
		}
		if ferr := traceBuf.Flush(); ferr != nil {
			fmt.Fprintf(os.Stderr, "simrun: trace: %v\n", ferr)
		}
		traceFile.Close()
	}
	if *reportFlag != "" {
		data, merr := obs.Report().MarshalIndentJSON()
		if merr == nil {
			merr = os.WriteFile(*reportFlag, append(data, '\n'), 0o644)
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "simrun: report: %v\n", merr)
		}
	}
	if *phasesFlag {
		fmt.Print(obs.Report().String())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simrun: %v\n", err)
		os.Exit(1)
	}
}

func printMetrics(m congest.Metrics, n int) {
	fmt.Printf("rounds %d, messages %d, words %d, total bits %d, max msg words %d\n",
		m.Rounds, m.Messages, m.Words, m.TotalBits(n), m.MaxWordsPerMsg)
}

func loadOrBuild(in string, useMmap bool, family string, n int, rng *rand.Rand) (*graph.Graph, error) {
	if in == "" {
		return buildGraph(family, n, rng), nil
	}
	if useMmap {
		// Mapped for the process lifetime; the kernel reclaims it at exit.
		mg, err := graph.OpenMapped(in)
		if err != nil {
			return nil, err
		}
		return mg.Graph, nil
	}
	return graph.LoadFile(in)
}

func buildGraph(family string, n int, rng *rand.Rand) *graph.Graph {
	side := int(math.Sqrt(float64(n)))
	if side < 3 {
		side = 3
	}
	switch family {
	case "trigrid":
		return graph.TriangulatedGrid(side, side)
	case "torus":
		return graph.Torus(side, side)
	case "planar":
		return graph.RandomMaximalPlanar(n, rng)
	case "tree":
		return graph.RandomTree(n, rng)
	default:
		return graph.Grid(side, side)
	}
}
