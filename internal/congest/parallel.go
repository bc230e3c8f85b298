package congest

import "sync"

// executor is the deterministic parallel phase runner behind Config.Workers.
//
// Each phase runs over an index range [0, k) of the caller's current
// worklist (the full vertex range before sparse scheduling; now the
// deliverList or stepList). The range is split into one contiguous chunk per
// worker; each phase dispatches every chunk to the long-lived worker pool
// and blocks until all chunks finish (the round barrier).
//
// Chunk boundaries are work-balanced: the caller supplies a per-index weight
// (pending message counts for delivery, degrees for compute — see DESIGN.md
// §3.12) and boundaries are placed at the ideal weight quantiles of the
// prefix-sum. The sparse worklists of §3.10 make per-index cost very uneven
// (a hub vertex can carry orders of magnitude more messages than a leaf), so
// equal-index chunks leave most workers idle behind the heaviest one.
// Boundaries remain a pure function of (Workers, worklist, weights), and
// both the worklist contents and the weights are rebuilt sequentially at
// barriers, so any per-vertex computation that is order-independent across
// vertices (the simulator's delivery and compute phases are, by construction
// — per-vertex PRNGs, canonical inbox order, hash-derived fault coins)
// produces results identical to the sequential path.
//
// Handler panics (model violations are contracted to panic) are recovered on
// the worker, parked per-chunk, and re-raised on the caller's goroutine
// after the barrier — lowest chunk first, which (the step list being sorted)
// matches the vertex the sequential path would have panicked on. Delivery
// runs no handler code, so its unordered worklist cannot panic.
type executor struct {
	workers int
	tasks   chan execTask
	wg      sync.WaitGroup
	panics  []any // one slot per chunk, rewritten each phase
	bounds  []int // workers+1 chunk boundaries, rewritten each phase
}

type execTask struct {
	fn     func(lo, hi int)
	lo, hi int
	idx    int
}

// newExecutor returns a pool of the given size, or nil when the sequential
// path should be used (workers <= 0 or an empty graph). n caps the pool:
// more workers than vertices would never all be busy.
func newExecutor(workers, n int) *executor {
	if workers <= 0 || n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	e := &executor{
		workers: workers,
		tasks:   make(chan execTask, workers),
		panics:  make([]any, workers),
		bounds:  make([]int, workers+1),
	}
	for i := 0; i < workers; i++ {
		go e.loop()
	}
	return e
}

func (e *executor) loop() {
	for t := range e.tasks {
		e.runTask(t)
	}
}

func (e *executor) runTask(t execTask) {
	defer e.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			e.panics[t.idx] = r // distinct slot per chunk: no lock needed
		}
	}()
	t.fn(t.lo, t.hi)
}

// splitBounds fills e.bounds[0..workers] with ascending chunk boundaries
// over [0, k): chunk c covers [bounds[c], bounds[c+1]). With a nil weight
// every chunk gets the same index count; otherwise boundary c is placed at
// the smallest prefix whose cumulative weight reaches c/workers of the
// total. Every index carries an implicit +1 on top of its weight, so
// zero-weight runs still spread across chunks and no chunk degenerates to
// the whole range. The result depends only on (workers, k, the weight
// sequence) — never on goroutine scheduling — which is what keeps parallel
// runs bit-identical and panic attribution stable.
func (e *executor) splitBounds(workers, k int, weight func(i int) int) {
	e.bounds[0] = 0
	if weight == nil {
		chunk := (k + workers - 1) / workers
		for c := 1; c < workers; c++ {
			b := c * chunk
			if b > k {
				b = k
			}
			e.bounds[c] = b
		}
		e.bounds[workers] = k
		return
	}
	total := 0
	for i := 0; i < k; i++ {
		total += weight(i) + 1
	}
	cum, c := 0, 1
	for i := 0; i < k && c < workers; i++ {
		cum += weight(i) + 1
		for c < workers && cum*workers >= c*total {
			e.bounds[c] = i + 1
			c++
		}
	}
	for ; c < workers; c++ {
		e.bounds[c] = k
	}
	e.bounds[workers] = k
}

// phase runs fn over the index range [0, k) sharded across the pool and
// waits for the barrier. fn(lo, hi) must touch only state owned by the
// worklist entries at positions lo..hi-1. weight(i) is the balance weight of
// worklist position i (nil falls back to equal index counts). At most
// `workers` chunks are dispatched regardless of k, so the panic slots never
// need to grow.
func (e *executor) phase(fn func(lo, hi int), k int, weight func(i int) int) {
	if k <= 0 {
		return
	}
	workers := e.workers
	if workers > k {
		workers = k
	}
	e.splitBounds(workers, k, weight)
	for i := range e.panics {
		e.panics[i] = nil
	}
	idx := 0
	for c := 0; c < workers; c++ {
		lo, hi := e.bounds[c], e.bounds[c+1]
		if lo >= hi {
			continue // a single heavy index can starve later quantiles
		}
		e.wg.Add(1)
		e.tasks <- execTask{fn: fn, lo: lo, hi: hi, idx: idx}
		idx++
	}
	e.wg.Wait()
	for _, p := range e.panics {
		if p != nil {
			panic(p)
		}
	}
}

// close shuts the pool down. The executor must not be used afterwards.
func (e *executor) close() { close(e.tasks) }
