package congest

import (
	"math/rand"
	"slices"
	"testing"

	"expandergap/internal/graph"
)

// TestRearmKeepsOneTimerEntry wakes sleepers by message every round and has
// each re-arm its timer toward a later round every time: the timer heap
// holds at most one entry per vertex, where pushing an entry per re-arm
// would stack up stale ones.
func TestRearmKeepsOneTimerEntry(t *testing.T) {
	g := graph.Star(7)
	const last = 40
	sim := NewSimulator(g, Config{Seed: 1})
	e := sim.Start(func(v *Vertex) Handler {
		return RunFuncs{RoundFn: func(v *Vertex, round int, recv []Incoming) {
			switch {
			case round >= last:
				v.Halt()
			case v.ID() == 0:
				v.BroadcastWords(int64(round))
			default:
				v.SleepUntil(round + 10 + v.ID())
			}
		}}
	})
	defer e.Close()
	peak := 0
	for {
		done, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		peak = max(peak, len(sim.timers.h))
	}
	if peak == 0 || peak > g.N() {
		t.Errorf("timer heap peaked at %d entries, want 1..%d", peak, g.N())
	}
}

// TestIDSetDrainsAscending marks random IDs, repeats included, across
// several summary words and checks that drain returns them once each, in
// ascending order, and leaves the set empty.
func TestIDSetDrainsAscending(t *testing.T) {
	const n = 3*4096 + 100
	b := newIDSet(n)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var want []int32
		for i := rng.Intn(200); i > 0; i-- {
			id := int32(rng.Intn(n))
			b.add(id)
			want = append(want, id)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := b.drain(nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: drained %v, want %v", trial, got, want)
		}
		if got := b.drain(nil); len(got) != 0 {
			t.Fatalf("trial %d: set not empty after drain: %v", trial, got)
		}
	}
}

// TestTimerHeapMatchesModel arms, re-arms (earlier and later) and pops
// timers at random and checks every pop against a plain map of each
// vertex's latest round: the heap must always yield the earliest
// (round, id) entry, once per arming.
func TestTimerHeapMatchesModel(t *testing.T) {
	const n = 50
	h := newTimerHeap(n)
	model := map[int]int{}
	rng := rand.New(rand.NewSource(2))
	for op := 0; op < 20000; op++ {
		if rng.Intn(3) > 0 || len(model) == 0 {
			id, round := rng.Intn(n), 1+rng.Intn(1000)
			h.set(id, round)
			model[id] = round
			continue
		}
		want := packTimer(1<<30, 0)
		for id, round := range model {
			want = min(want, packTimer(round, id))
		}
		got := h.pop()
		if got != want {
			gr, gid := unpackTimer(got)
			wr, wid := unpackTimer(want)
			t.Fatalf("op %d: popped (round %d, id %d), want (round %d, id %d)", op, gr, gid, wr, wid)
		}
		_, id := unpackTimer(got)
		delete(model, id)
		if len(h.h) != len(model) {
			t.Fatalf("op %d: heap holds %d entries, model %d", op, len(h.h), len(model))
		}
	}
}
