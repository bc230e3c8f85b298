// Package serve implements the resident decomposition-as-a-service layer:
// a long-lived HTTP server that loads a network once, computes its expander
// decomposition once, and then amortizes that single cached decomposition
// across arbitrarily many concurrent queries instead of re-decomposing per
// request.
//
// # Snapshot lifecycle
//
// The unit of state is the immutable Snapshot: the graph (text, binary, or
// zero-copy mmap via the internal/graph load paths), its expander
// decomposition, the per-cluster leader table, and a monotonically
// increasing epoch. The server holds the current snapshot behind an
// atomic.Pointer; every request pins the snapshot it starts on with a
// reference count and keeps using it to completion, so a concurrent
// POST /reload — which builds the replacement snapshot entirely off to the
// side and then swaps the pointer — never tears an in-flight request. A
// retired snapshot is destroyed (and its mmap unmapped) only when the last
// request holding it finishes.
//
// # Query families, batching, caching
//
// Four query families are served, all running as real CONGEST message
// passing against the cached decomposition (core.Options.Decomposition):
// approximate matching, approximate maximum independent set, low-diameter
// clustering, and random-walk routing. Each family has one canonical run
// per (epoch, parameters) key. Concurrent requests for the same key
// coalesce into a single simulator run (a "flight": every same-key request
// that arrives while the run waits for a slot or executes joins it), and
// the finished result is cached keyed on (epoch, family, parameters) — cache
// entries die with their epoch at swap time, never by timeout. Because the
// batched run is the canonical run, a coalesced result is bit-identical to
// what each request would have computed sequentially; requests that only
// differ in their projection (the vertices/sources filter) share one run.
//
// Every result carries structured accounting from the congest.Observer
// span machinery: rounds, messages, words, and bits per phase of the run
// that produced it.
//
// # The framework prefix, once per snapshot
//
// The §2.3 diameter check, leader election, orientation, and the routing
// budget depend only on the snapshot's graph and decomposition, not on a
// query's seed or ε. The first matching, mis, or clustering query on a
// snapshot simulates them once (core.Prepare, behind a sync.Once — queries
// that arrive meanwhile wait for it) and every later framework query on
// that snapshot reuses the prefix (core.Options.Prefix). walkroute never
// prepares one, and BuildSnapshot and /mutate do not either, so swaps stay
// as cheap as the decomposition. The accounting is unchanged: phase costs
// are the run's CONGEST-model cost, so a prefixed run still reports the
// diameter-check, elect-leaders, and orientation phases with the rounds,
// messages, words, and bits they cost, byte-identical to a run that
// simulated them itself.
//
// # Admission control and the encoded-response cache
//
// Canonical runs are multi-phase CONGEST simulations — seconds to hours of
// CPU, not microseconds — so they are admitted like batch jobs, not HTTP
// handlers. A run pool of bounded run slots (default min(GOMAXPROCS,
// NumCPU)) over a FIFO admission queue admits every canonical run, which
// then executes on its flight leader's request goroutine; only flight
// leaders submit to it, and the pool starts no goroutines of its own. When
// the queue is full the request is rejected immediately with 429 +
// Retry-After (a structured JSON error carrying the same estimate), so
// distinct-key bursts throttle cleanly instead of oversubscribing the
// simulator. Cache hits and coalesced followers never touch the pool:
// saturation affects only genuinely new work.
//
// The cache stores the canonical result's *encoded* JSON bytes alongside
// the Result (encoded once by the flight leader, inside its run slot, with
// encoding/json). A cache hit or coalesced response is then a header write
// plus the hand-written envelope (pinned byte-identical to encoding/json)
// around one pooled-buffer copy — no per-vertex re-encoding, zero
// allocations at steady state. The cache is bounded by bytes-accounted LRU
// eviction on top of the epoch-death invalidation rule.
//
// See DESIGN.md §3.14–3.15 for the architecture and API.md for the wire
// format.
package serve
