package congest

import "math/bits"

// This file implements the sparse activation scheduler (DESIGN.md §3.10).
//
// The scheduler keeps one set, next, of the vertices that may step in the
// next round, so a round costs O(stepped + messages) instead of O(n + m).
// Three things put a vertex in it:
//
//   - Send marks a receiver when the first message to it survives the fault
//     filter, so a dropped message wakes no one.
//   - Right after a vertex's Init or Round call returns, settle marks it if
//     it is still awake. A sleeper (wakeAt > 0) arms or moves its one
//     timer-heap entry instead; a halted vertex is left out.
//   - The barrier marks the sleepers whose timer is due.
//
// The barrier then reads next out in ascending ID order into stepList,
// dropping halted vertices and clearing wakeAt on the rest. The
// set and the step list are preallocated by buildLayout, so the
// steady-state round loop stays allocation-free, and nothing is ever sorted
// or merged.
//
// Send writes each message straight into its receiver's inbox for the next
// round's parity (congest.go). Vertices run in ascending ID order (the step
// list and the Init walk both ascend), so every inbox is ascending by sender
// ID.

// timerHeap is a binary min-heap of packed (wakeRound<<32 | vertexID)
// entries, at most one per vertex. Packing into one int64 makes the heap
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

// idSet is a set of vertex IDs as an n-bit bitmap with one summary bit per
// 64-bit word, set while that word is non-zero. drain reads the members out
// in ascending order in O(members + n/4096).
type idSet struct {
	words   []uint64
	summary []uint64
}

func newIDSet(n int) idSet {
	w := (n + 63) / 64
	return idSet{words: make([]uint64, w), summary: make([]uint64, (w+63)/64)}
}

func (b *idSet) add(id int32) {
	w := id >> 6
	b.words[w] |= 1 << (id & 63)
	b.summary[w>>6] |= 1 << (w & 63)
}

// reset empties the set.
func (b *idSet) reset() {
	clear(b.words)
	clear(b.summary)
}

// drain appends the members to dst in ascending order and empties the set.
func (b *idSet) drain(dst []int32) []int32 {
	for si, sw := range b.summary {
		if sw == 0 {
			continue
		}
		b.summary[si] = 0
		for sw != 0 {
			w := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := b.words[w]
			b.words[w] = 0
			for word != 0 {
				dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	return dst
}

// settle schedules v right after its Init or Round call returns. Vertices
// settle in ascending ID order, so timers are armed in that order.
func (s *Simulator) settle(v *Vertex) {
	switch {
	case v.halted:
		// Left out; its sends still deliver next round.
	case v.wakeAt > 0:
		s.timers.set(v.id, v.wakeAt)
	default:
		s.next.add(int32(v.id))
	}
}

// assembleStepList builds the set of vertices to step in the given round at
// the barrier before the compute phase: the vertices that settled awake,
// the receivers of a surviving message, and the sleepers whose SleepUntil
// timer expires this round, ascending by ID. A vertex woken early by a
// message keeps its stale timer entry; the pop discards it because the
// vertex no longer validates.
func (s *Simulator) assembleStepList(round int) {
	for len(s.timers.h) > 0 {
		due, _ := unpackTimer(s.timers.h[0])
		if due > round {
			break
		}
		_, id := unpackTimer(s.timers.pop())
		v := &s.verts[id]
		if !v.halted && v.wakeAt == due {
			s.next.add(int32(id))
		}
	}
	step := s.next.drain(s.stepList[:0])
	k := 0
	for _, id := range step {
		v := &s.verts[id]
		if !v.halted {
			v.wakeAt = 0
			step[k] = id
			k++
		}
	}
	s.stepList = step[:k]
}

// resetSchedule clears the scheduler for a fresh execution, before Init
// sends anything: the next-round set, the timer heap, and the send and
// inbox stamps (round numbers restart at 1 each run, so stale stamps from a
// previous execution must not alias). The step list is rebuilt every round.
func (s *Simulator) resetSchedule() {
	s.next.reset()
	s.timers.reset()
	clear(s.sentAt)
	for p := range s.inboxes {
		clear(s.inboxes[p].head)
	}
}
