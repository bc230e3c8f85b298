package serve

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated is returned by runPool.submit when the admission queue is
// full: the server is already running as many canonical simulator runs as
// it has slots, with a full FIFO of runs waiting behind them. Callers
// translate it into 429 + Retry-After instead of queueing unboundedly.
var ErrSaturated = errors.New("run pool saturated")

// runPool admits canonical simulator runs. Flight leaders submit the run;
// coalesced followers and cache hits never touch the pool, so saturation
// throttles only genuinely new work. The pool starts no goroutines: a run
// executes on its caller's goroutine once it holds one of `workers` slots.
// A caller that finds every slot busy waits in a FIFO of at most `depth`,
// or fails at once with ErrSaturated when the FIFO is full; a finishing run
// hands its slot straight to the oldest waiter, so a newcomer cannot jump
// the line.
//
// A canonical run is a multi-phase CONGEST simulation — CPU-seconds to
// CPU-hours, not microseconds — so the pool admits runs like batch jobs,
// and everything beyond its bounds is explicit backpressure.
type runPool struct {
	workers int
	depth   int

	mu      sync.Mutex
	free    int             // idle run slots
	waiters []chan struct{} // callers waiting for a slot, oldest first; closed on handoff

	queued    atomic.Int64 // runs admitted but not yet started
	running   atomic.Int64 // runs currently executing
	submitted atomic.Int64 // admission attempts (admitted + rejected)
	completed atomic.Int64
	rejected  atomic.Int64
	waitNs    atomic.Int64 // total time admitted runs spent queued
	maxWaitNs atomic.Int64
	runNs     atomic.Int64 // total run execution time
}

// defaultPoolWorkers is the slot count used when Config.RunPool is 0:
// one canonical run per schedulable CPU, never more.
func defaultPoolWorkers() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// newRunPool returns a pool of `workers` run slots over a FIFO of
// capacity `depth`. Zero or negative values select the defaults (workers:
// min(GOMAXPROCS, NumCPU); depth: 4x workers).
func newRunPool(workers, depth int) *runPool {
	if workers <= 0 {
		workers = defaultPoolWorkers()
	}
	if depth <= 0 {
		depth = 4 * workers
	}
	return &runPool{workers: workers, depth: depth, free: workers}
}

// submit runs fn on the caller's goroutine once a run slot is free,
// waiting in FIFO order behind earlier callers. When every slot is busy and
// the FIFO is full it returns ErrSaturated without blocking.
func (p *runPool) submit(fn func()) error {
	p.submitted.Add(1)
	enqueued := time.Now()
	p.mu.Lock()
	switch {
	case p.free > 0:
		p.free--
		p.mu.Unlock()
	case len(p.waiters) < p.depth:
		ready := make(chan struct{})
		p.waiters = append(p.waiters, ready)
		p.queued.Add(1)
		p.mu.Unlock()
		<-ready
	default:
		p.mu.Unlock()
		p.rejected.Add(1)
		return ErrSaturated
	}
	wait := time.Since(enqueued).Nanoseconds()
	p.waitNs.Add(wait)
	storeMax(&p.maxWaitNs, wait)
	p.running.Add(1)
	defer p.finish(time.Now())
	fn()
	return nil
}

// finish records a run that started at t0 and passes its slot to the
// oldest waiter, or frees it when nobody waits.
func (p *runPool) finish(t0 time.Time) {
	p.runNs.Add(time.Since(t0).Nanoseconds())
	p.running.Add(-1)
	p.completed.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.waiters) == 0 {
		p.free++
		return
	}
	close(p.waiters[0])
	p.waiters = slices.Delete(p.waiters, 0, 1)
	p.queued.Add(-1)
}

// retryAfter estimates how long a rejected caller should back off: the
// current backlog (queued + running) times the observed mean run duration,
// divided across the slots, clamped to [1s, 60s]. With no completed runs
// yet it falls back to 1s.
func (p *runPool) retryAfter() time.Duration {
	meanRun := time.Second
	if done := p.completed.Load(); done > 0 {
		meanRun = time.Duration(p.runNs.Load() / done)
	}
	backlog := p.queued.Load() + p.running.Load()
	est := time.Duration(backlog) * meanRun / time.Duration(p.workers)
	return min(max(est, time.Second), time.Minute)
}

// storeMax raises a to v when v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		m := a.Load()
		if v <= m || a.CompareAndSwap(m, v) {
			return
		}
	}
}

// poolStatz is the /statz JSON shape of the pool counters.
type poolStatz struct {
	Workers         int     `json:"workers"`
	QueueCapacity   int     `json:"queue_capacity"`
	Queued          int64   `json:"queued"`
	Running         int64   `json:"running"`
	Submitted       int64   `json:"submitted"`
	Completed       int64   `json:"completed"`
	Rejected        int64   `json:"rejected"`
	QueueWaitMs     float64 `json:"queue_wait_ms"`
	QueueWaitMeanMs float64 `json:"queue_wait_mean_ms"`
	QueueWaitMaxMs  float64 `json:"queue_wait_max_ms"`
	RunMs           float64 `json:"run_ms"`
}

func (p *runPool) statz() poolStatz {
	st := poolStatz{
		Workers:        p.workers,
		QueueCapacity:  p.depth,
		Queued:         p.queued.Load(),
		Running:        p.running.Load(),
		Submitted:      p.submitted.Load(),
		Completed:      p.completed.Load(),
		Rejected:       p.rejected.Load(),
		QueueWaitMs:    float64(p.waitNs.Load()) / 1e6,
		QueueWaitMaxMs: float64(p.maxWaitNs.Load()) / 1e6,
		RunMs:          float64(p.runNs.Load()) / 1e6,
	}
	// waitNs is recorded when a run starts, so the mean's denominator must
	// count started runs (still-running ones included), not just completed.
	if started := st.Completed + st.Running; started > 0 {
		st.QueueWaitMeanMs = st.QueueWaitMs / float64(started)
	}
	return st
}
