package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPoolBoundedConcurrency submits more jobs than run slots and asserts
// the observed concurrency never exceeds the slot count.
func TestPoolBoundedConcurrency(t *testing.T) {
	p := newRunPool(2, 8)
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.submit(func() {
				c := cur.Add(1)
				for {
					m := max.Load()
					if c <= m || max.CompareAndSwap(m, c) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				cur.Add(-1)
			})
			if err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent runs, pool has 2 workers", got)
	}
	st := p.statz()
	if st.Completed != 8 || st.Submitted != 8 || st.Rejected != 0 {
		t.Fatalf("pool stats after drain: %+v", st)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
	if st.QueueWaitMs <= 0 {
		t.Fatalf("8 jobs through 2 workers recorded no queue wait: %+v", st)
	}
}

// TestPoolSaturation fills one run slot and a depth-1 queue, then asserts
// the next submit is rejected immediately with ErrSaturated.
func TestPoolSaturation(t *testing.T) {
	p := newRunPool(1, 1)
	gate := make(chan struct{})
	done := make(chan error, 2)
	// First job occupies the worker.
	go func() { done <- p.submit(func() { <-gate }) }()
	waitFor(t, "worker busy", func() bool { return p.running.Load() == 1 })
	// Second job fills the queue.
	go func() { done <- p.submit(func() {}) }()
	waitFor(t, "queue full", func() bool { return p.queued.Load() == 1 })

	t0 := time.Now()
	if err := p.submit(func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit into full pool: err = %v, want ErrSaturated", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("saturated submit blocked for %v, want immediate rejection", d)
	}
	if got := p.statz().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if ra := p.retryAfter(); ra < time.Second || ra > time.Minute {
		t.Fatalf("retryAfter %v outside [1s, 60s]", ra)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted job %d failed: %v", i, err)
		}
	}
	if st := p.statz(); st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
}

// TestPoolFIFO pins admission order: with a single run slot, queued jobs run
// in the order they were admitted.
func TestPoolFIFO(t *testing.T) {
	p := newRunPool(1, 4)
	gate := make(chan struct{})
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.submit(func() { <-gate })
	}()
	waitFor(t, "worker busy", func() bool { return p.running.Load() == 1 })
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.submit(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}()
		waitFor(t, "job queued", func() bool { return p.queued.Load() == int64(i) })
	}
	close(gate)
	wg.Wait()
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("execution order %v, want [1 2 3]", order)
		}
	}
}

// TestPoolDefaults checks the zero-config sizing rules.
func TestPoolDefaults(t *testing.T) {
	p := newRunPool(0, 0)
	if p.workers != defaultPoolWorkers() {
		t.Fatalf("default workers = %d, want %d", p.workers, defaultPoolWorkers())
	}
	if p.depth != 4*p.workers {
		t.Fatalf("default depth = %d, want %d", p.depth, 4*p.workers)
	}
}
