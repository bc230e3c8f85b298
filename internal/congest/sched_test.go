package congest

import (
	"math/rand"
	"slices"
	"testing"

	"expandergap/internal/graph"
)

// TestRearmKeepsOneTimerEntry wakes sleepers by message every round and has
// each re-arm its wake toward a later round every time: the wake wheel
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
		peak = max(peak, sim.wakes.pending())
	}
	if peak == 0 || peak > g.N() {
		t.Errorf("wake wheel peaked at %d entries, want 1..%d", peak, g.N())
	}
}

// pending counts the vertices whose node is linked into a slot.
func (w *wakeWheel) pending() int {
	k := 0
	for id := range w.at {
		if w.link[id].next != int32(id) {
			k++
		}
	}
	return k
}

// TestWakeWheelMatchesTimerHeap drives the wake wheel and the timer heap it
// replaced through the same random runs, in which vertices arm wakes (near,
// across block boundaries, past the two levels' 2^20-round reach, and past
// any run's end), re-arm them earlier or later, are woken early by a message
// and halt. Both structures must hand the scheduler the same due set every
// round once it discards the entries whose vertex no longer validates, and
// hold the same number of entries, at most one per vertex.
func TestWakeWheelMatchesTimerHeap(t *testing.T) {
	const n = 40
	for _, c := range []struct {
		rounds int
		every  int // one random action per this many rounds, on average
	}{{3000, 1}, {40000, 4}, {3<<20 + 5000, 256}} {
		rng := rand.New(rand.NewSource(int64(c.rounds)))
		wheel, heap := newWakeWheel(n), newTimerHeap(n)
		wakeAt := make([]int, n)
		halted := make([]bool, n)
		var fromWheel, fromHeap []int32
		valid := func(id int32, round int) bool { return !halted[id] && wakeAt[id] == round }
		for round := 1; round <= c.rounds; round++ {
			fromWheel, fromHeap = fromWheel[:0], fromHeap[:0]
			for _, id := range wheel.advance(round, nil) {
				if valid(id, round) {
					fromWheel = append(fromWheel, id)
				}
			}
			for len(heap.h) > 0 {
				due, id := unpackTimer(heap.h[0])
				if due > round {
					break
				}
				heap.pop()
				if valid(int32(id), due) {
					fromHeap = append(fromHeap, int32(id))
				}
			}
			slices.Sort(fromWheel)
			slices.Sort(fromHeap)
			if !slices.Equal(fromWheel, fromHeap) {
				t.Fatalf("%d rounds, round %d: wheel woke %v, heap %v", c.rounds, round, fromWheel, fromHeap)
			}
			for _, id := range fromWheel {
				wakeAt[id] = 0
			}
			if got, want := wheel.pending(), len(heap.h); got != want || got > n {
				t.Fatalf("%d rounds, round %d: wheel holds %d entries, heap %d", c.rounds, round, got, want)
			}
			if rng.Intn(c.every) != 0 {
				continue
			}
			id := rng.Intn(n)
			switch op := rng.Intn(10); {
			case op == 0:
				halted[id] = true
			case op <= 2:
				wakeAt[id] = 0 // woken early by a message: its entry goes stale
			case !halted[id]:
				delay := 2 + rng.Intn(1<<(2+rng.Intn(21)))
				if op == 9 {
					delay = 1 << 30 // a wait for a message alone
				}
				wakeAt[id] = round + delay
				wheel.set(id, wakeAt[id])
				heap.set(id, wakeAt[id])
			}
		}
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

// timerHeap is the scheduler's earlier wake structure, kept as the oracle of
// TestWakeWheelMatchesTimerHeap: a binary min-heap of packed
// (wakeRound<<32 | vertexID) entries, at most one per vertex. Packing into one int64 makes the heap
// comparison order by round first, vertex ID second, with no interface
// boxing and no allocation beyond the backing arrays. pos[id] is the index
// of id's entry, or -1, so re-arming a sleeper moves its entry instead of
// pushing another. A vertex woken early by a message keeps its entry until
// it is re-armed or popped; the pop discards it because the vertex no longer
// validates (wakeAt moved).
type timerHeap struct {
	h   []int64
	pos []int32
}

func packTimer(round, id int) int64 { return int64(round)<<32 | int64(id) }

func unpackTimer(t int64) (round, id int) { return int(t >> 32), int(t & 0xffffffff) }

func newTimerHeap(n int) timerHeap {
	t := timerHeap{h: make([]int64, 0, n), pos: make([]int32, n)}
	for i := range t.pos {
		t.pos[i] = -1
	}
	return t
}

// set arms id's timer for round, moving its entry if it has one.
func (t *timerHeap) set(id, round int) {
	e := packTimer(round, id)
	i := int(t.pos[id])
	if i < 0 {
		t.h = append(t.h, e)
		t.up(len(t.h) - 1)
		return
	}
	old := t.h[i]
	t.h[i] = e
	if e < old {
		t.up(i)
	} else {
		t.down(i)
	}
}

// pop removes and returns the earliest entry.
func (t *timerHeap) pop() int64 {
	top := t.h[0]
	last := len(t.h) - 1
	t.move(0, t.h[last])
	t.h = t.h[:last]
	t.pos[top&0xffffffff] = -1
	if last > 0 {
		t.down(0)
	}
	return top
}

// move stores entry e at index i and records its position.
func (t *timerHeap) move(i int, e int64) {
	t.h[i] = e
	t.pos[e&0xffffffff] = int32(i)
}

func (t *timerHeap) up(i int) {
	e := t.h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if t.h[parent] <= e {
			break
		}
		t.move(i, t.h[parent])
		i = parent
	}
	t.move(i, e)
}

func (t *timerHeap) down(i int) {
	e := t.h[i]
	n := len(t.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && t.h[r] < t.h[l] {
			small = r
		}
		if e <= t.h[small] {
			break
		}
		t.move(i, t.h[small])
		i = small
	}
	t.move(i, e)
}

// reset empties the heap.
func (t *timerHeap) reset() {
	for _, e := range t.h {
		t.pos[e&0xffffffff] = -1
	}
	t.h = t.h[:0]
}
