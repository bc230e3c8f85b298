package serve

import (
	"sync"
	"sync/atomic"
)

// flight is one in-progress canonical run that concurrent requests with
// the same key join instead of re-running. The shared payload is the
// encoded result, so followers reuse the leader's one-time encoding.
type flight struct {
	done   chan struct{}
	res    *encResult
	err    error
	joined atomic.Int64 // batch occupancy: leader + followers
}

// batcher coalesces concurrent same-key requests into one run per key.
// The first arrival becomes the flight leader; it runs the canonical
// computation once and publishes the result to every member. The flight is
// registered before the run and removed after it, so every same-key
// request that arrives while the run waits for a slot or executes joins
// it. Because the run is keyed purely on (epoch, family, params), the
// batched result is bit-identical to what each member would have computed
// alone.
type batcher struct {
	mu      sync.Mutex
	flights map[string]*flight
}

func newBatcher() *batcher {
	return &batcher{flights: make(map[string]*flight)}
}

// do runs (or joins) the flight for key. It returns the shared result, the
// final batch occupancy, and whether this caller led the flight. run must
// make the result visible to late arrivals (i.e. populate the cache)
// before do returns, because the flight is deregistered at that point.
func (b *batcher) do(key string, run func() (*encResult, error)) (res *encResult, occupancy int64, led bool, err error) {
	b.mu.Lock()
	if f, ok := b.flights[key]; ok {
		f.joined.Add(1)
		b.mu.Unlock()
		<-f.done
		return f.res, f.joined.Load(), false, f.err
	}
	f := &flight{done: make(chan struct{})}
	f.joined.Store(1)
	b.flights[key] = f
	b.mu.Unlock()

	f.res, f.err = run()

	b.mu.Lock()
	delete(b.flights, key)
	b.mu.Unlock()
	close(f.done)
	return f.res, f.joined.Load(), true, f.err
}
