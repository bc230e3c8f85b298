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
//     wake-wheel entry instead; a halted vertex is left out.
//   - The barrier marks the sleepers whose wake is due.
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

// wakeWheel holds the pending SleepUntil wakes, at most one per vertex, in
// a two-level timing wheel keyed by round. Level 0 has one slot per round
// of the current 1024-round block; level 1 has one slot per block of the
// next 1024 blocks, so the two levels reach 2^20 rounds ahead, the default
// round cap; a wake further out waits in one overflow list. Each vertex has
// one node in a circular doubly linked list, and each slot one sentinel
// node, so arming, re-arming and popping are O(1): a re-arm unlinks the
// node and links it into its new slot, and an unarmed node links to itself.
// advance cascades a level-1 slot into level 0 at each block start, and the
// overflow list into the levels every 2^20 rounds, so every entry reaches
// level 0 by its round. A vertex woken early by a message keeps its entry
// until it is re-armed or due, and the caller discards a due entry whose
// vertex no longer validates.
type wakeWheel struct {
	now  int        // the round last advanced to; 0 before round 1
	at   []int      // at[id] is the round of id's entry while it is linked
	link []wakeLink // the n vertex nodes, then the level-0, level-1 and overflow sentinels
}

const (
	wheelBits  = 10
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
)

// wakeLink is one node of a slot's circular list.
type wakeLink struct{ next, prev int32 }

func newWakeWheel(n int) wakeWheel {
	w := wakeWheel{at: make([]int, n), link: make([]wakeLink, n+2*wheelSlots+1)}
	w.reset()
	return w
}

// reset empties the wheel and rewinds it to round 0.
func (w *wakeWheel) reset() {
	for i := range w.link {
		w.link[i] = wakeLink{int32(i), int32(i)}
	}
	w.now = 0
}

// set arms id's wake for round, after the current round, moving its entry
// if it has one.
func (w *wakeWheel) set(id, round int) {
	w.unlink(int32(id))
	w.at[id] = round
	w.insert(int32(id))
}

// insert links node id into the slot of its round.
func (w *wakeWheel) insert(id int32) {
	round, n := w.at[id], len(w.at)
	b, nb := round>>wheelBits, w.now>>wheelBits
	s := n + 2*wheelSlots // overflow
	switch {
	case b == nb:
		s = n + (round & wheelMask)
	case b-nb <= wheelSlots:
		s = n + wheelSlots + (b & wheelMask)
	}
	l := w.link
	last := l[s].prev
	l[id] = wakeLink{next: int32(s), prev: last}
	l[last].next = id
	l[s].prev = id
}

// unlink takes node id out of its list; an unlinked node stays put.
func (w *wakeWheel) unlink(id int32) {
	l := w.link
	e := l[id]
	l[e.prev].next = e.next
	l[e.next].prev = e.prev
	l[id] = wakeLink{id, id}
}

// detach empties the list of sentinel s and returns its first node, s
// itself when it was empty; the detached nodes still chain through next
// and end at s.
func (w *wakeWheel) detach(s int) int32 {
	first := w.link[s].next
	w.link[s] = wakeLink{int32(s), int32(s)}
	return first
}

// reinsert re-sorts the list of sentinel s into the slots the current
// round selects.
func (w *wakeWheel) reinsert(s int) {
	for id := w.detach(s); id != int32(s); {
		next := w.link[id].next
		w.insert(id)
		id = next
	}
}

// advance moves the wheel to round, the round after the one it was last
// advanced to, appends the IDs whose entries are due then to dst, and
// unlinks them.
func (w *wakeWheel) advance(round int, dst []int32) []int32 {
	w.now = round
	n := len(w.at)
	if round&wheelMask == 0 {
		if (round>>wheelBits)&wheelMask == 0 {
			w.reinsert(n + 2*wheelSlots)
		}
		w.reinsert(n + wheelSlots + (round>>wheelBits)&wheelMask)
	}
	s := n + (round & wheelMask)
	for id := w.detach(s); id != int32(s); {
		next := w.link[id].next
		w.link[id] = wakeLink{id, id}
		dst = append(dst, id)
		id = next
	}
	return dst
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

// settle schedules v right after its Init or Round call returns.
func (s *Simulator) settle(v *Vertex) {
	switch {
	case v.halted:
		// Left out; its sends still deliver next round.
	case v.wakeAt > 0:
		s.wakes.set(v.id, v.wakeAt)
	default:
		s.next.add(int32(v.id))
	}
}

// assembleStepList builds the set of vertices to step in the given round at
// the barrier before the compute phase: the vertices that settled awake,
// the receivers of a surviving message, and the sleepers whose SleepUntil
// round is this one, ascending by ID. A vertex woken early by a message
// keeps its stale wheel entry; it is discarded when due because the vertex
// no longer validates. The due list borrows the step list's buffer, which
// holds n IDs and is refilled only after the list is read.
func (s *Simulator) assembleStepList(round int) {
	for _, id := range s.wakes.advance(round, s.stepList[:0]) {
		v := &s.verts[id]
		if !v.halted && v.wakeAt == round {
			s.next.add(id)
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
// sends anything: the next-round set, the wake wheel, and the send and
// inbox stamps (round numbers restart at 1 each run, so stale stamps from a
// previous execution must not alias). The step list is rebuilt every round.
func (s *Simulator) resetSchedule() {
	s.next.reset()
	s.wakes.reset()
	clear(s.sentAt)
	for p := range s.inboxes {
		clear(s.inboxes[p].head)
	}
}
