// Command expandersvc is the resident decomposition-as-a-service server:
// it loads a graph once (text edge list, binary CSR, or zero-copy mmap),
// computes its expander decomposition once, and serves approximate-matching
// / MIS / clustering / walk-routing queries over HTTP against that cached
// snapshot, with admission-controlled run slots, request coalescing,
// per-(epoch, params) encoded-response caching under a byte-capped LRU,
// hot snapshot swap via POST /reload and POST /mutate, and graceful
// shutdown. When the admission queue is full, new canonical work is rejected
// with 429 + Retry-After; cache hits and coalesced followers are never
// rejected.
//
// Usage:
//
//	expandersvc -graph er.bin [-mmap] [-addr :8080] [-eps 0.3] [-seed 1]
//	            [-decworkers 1] [-runpool 0] [-queuedepth 0]
//	            [-cachebytes 268435456] [-pprof] [-shutdowntimeout 10s]
//
// Endpoints (full schemas in API.md):
//
//	GET  /healthz          liveness + current epoch
//	GET  /statz            snapshot, cache, pool, batching and per-family counters
//	POST /reload           build a new snapshot off to the side and swap it in
//	POST /mutate           apply an edge/vertex op batch, re-decompose incrementally, swap
//	POST /query/matching   approximate maximum weight matching
//	POST /query/mis        approximate maximum independent set
//	POST /query/clustering low-diameter clustering
//	POST /query/walkroute  Lemma 2.4 random-walk routing to cluster leaders
//	GET  /debug/pprof/*    runtime profiles (only with -pprof)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"expandergap/internal/serve"
)

func main() {
	graphFlag := flag.String("graph", "", "graph file to serve (text edge list or binary CSR; required)")
	mmapFlag := flag.Bool("mmap", false, "memory-map the graph file (binary CSR only; file must outlive the process)")
	addrFlag := flag.String("addr", ":8080", "listen address")
	epsFlag := flag.Float64("eps", 0.3, "decomposition edge-removal budget ε")
	seedFlag := flag.Int64("seed", 1, "decomposition seed")
	decWorkers := flag.Int("decworkers", 1, "decomposer goroutine pool size (the decomposition is the same at every value)")
	runPool := flag.Int("runpool", 0, "canonical-run slots: runs executed concurrently (0 = min(GOMAXPROCS, NumCPU))")
	queueDepth := flag.Int("queuedepth", 0, "admission queue depth before 429s (0 = 4x run slots)")
	cacheBytes := flag.Int64("cachebytes", 0, "result cache capacity in bytes before LRU eviction (0 = 256 MiB)")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof/* runtime profiling endpoints")
	shutdownTimeout := flag.Duration("shutdowntimeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	flag.Parse()
	if *graphFlag == "" {
		fmt.Fprintln(os.Stderr, "expandersvc: -graph is required")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "expandersvc: ", log.LstdFlags)
	srv, err := serve.New(serve.Config{
		Spec: serve.Spec{
			Path: *graphFlag, Mmap: *mmapFlag,
			Eps: *epsFlag, Seed: *seedFlag, DecWorkers: *decWorkers,
		},
		RunPool:    *runPool,
		QueueDepth: *queueDepth,
		CacheBytes: *cacheBytes,
		Log:        logger,
	})
	if err != nil {
		logger.Fatalf("startup: %v", err)
	}

	handler := srv.Handler()
	if *pprofFlag {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Printf("pprof endpoints enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{
		Addr:              *addrFlag,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	logger.Printf("serving on %s (epoch %d)", *addrFlag, srv.Epoch())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		logger.Fatalf("listener: %v", err)
	case got := <-sig:
		logger.Printf("received %v, draining (budget %v)", got, *shutdownTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	srv.Close()
	logger.Printf("bye")
}
