package congest

import "slices"

// This file implements the sparse activation scheduler (DESIGN.md §3.10).
//
// The simulator tracks four worklists so each round costs O(active +
// messages) instead of O(n + m):
//
//   - awake:       vertices eligible to step next round (non-halted, not
//                  sleeping), ascending by ID.
//   - deliverList: vertices with at least one message queued to them by the
//                  previous compute phase (pre-fault-filter), deduped, in the
//                  order Send first queued to them.
//   - wakeList:    sleeping vertices woken this round by a delivered message
//                  or an expired SleepUntil timer, ascending once sorted.
//   - stepList:    vertices actually stepped this round — awake merged with
//                  wakeList, ascending by ID.
//
// Send appends to deliverList as it queues; the other three are rebuilt at
// the round barrier from per-vertex state. All four live in buffers
// preallocated to capacity n by buildLayout, so the steady-state round loop
// remains allocation-free. deliverList needs no order: delivery is
// receiver-local and each inbox is filled from the receiver's own pending
// list. Only the wake list, usually a small fraction of the step list, is
// sorted each round.
//
// Messages move from sender to receiver through one more per-vertex list,
// laid out in flat arrays like the ports: a receiver's pending list (the
// flat outbox indices off[sender]+port of its queued messages, pendingCount
// long). Send appends to it and delivery walks it, so both cost O(messages)
// rather than O(degree) per vertex. Vertices run in ascending ID order (the
// step list and the Init walk both ascend), so every pending list — and
// with it every inbox — is ascending by sender ID.

// timerHeap is a binary min-heap of packed (wakeRound<<32 | vertexID)
// entries. Packing into one int64 makes the heap comparison order by round
// first, vertex ID second, with no interface boxing and no allocation beyond
// the backing array. Entries are lazily deleted: a vertex woken early by a
// message leaves its entry behind, and the pop in the entry's round discards
// it because the vertex no longer validates (not asleep, or wakeAt moved).
type timerHeap []int64

func packTimer(round, id int) int64 { return int64(round)<<32 | int64(id) }

func unpackTimer(t int64) (round, id int) { return int(t >> 32), int(t & 0xffffffff) }

func (h *timerHeap) push(t int64) {
	*h = append(*h, t)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *timerHeap) pop() int64 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		small := l
		if r := l + 1; r < last && s[r] < s[l] {
			small = r
		}
		if s[i] <= s[small] {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// assembleStepList builds the set of vertices to step in the given round:
// every awake vertex, plus sleeping vertices woken by a message that survived
// the fault filter (the wake decision is made after delivery precisely so a
// dropped message cannot wake anyone), plus sleeping vertices whose
// SleepUntil timer expires this round. Runs at the barrier between the
// delivery and compute phases.
//
// The three sources are disjoint — awake vertices are not asleep, and a
// message wake clears asleep before the timer drain runs — so no dedup pass
// is needed. awake is already ascending; the wakes are sorted on their own
// and merged into it.
func (s *Simulator) assembleStepList(round int) {
	wakes := s.wakeList[:0]
	for _, id := range s.deliverList {
		v := &s.verts[id]
		if v.asleep && !v.halted && len(s.inboxes[id]) > 0 {
			v.asleep, v.wakeAt = false, 0
			wakes = append(wakes, id)
		}
	}
	for len(s.timers) > 0 {
		due, _ := unpackTimer(s.timers[0])
		if due > round {
			break
		}
		_, id := unpackTimer(s.timers.pop())
		v := &s.verts[id]
		if v.asleep && !v.halted && v.wakeAt == due {
			v.asleep, v.wakeAt = false, 0
			wakes = append(wakes, int32(id))
		}
	}
	slices.Sort(wakes)
	s.wakeList = wakes
	step, awake := s.stepList[:0], s.awake
	for len(awake) > 0 && len(wakes) > 0 {
		if awake[0] < wakes[0] {
			step, awake = append(step, awake[0]), awake[1:]
		} else {
			step, wakes = append(step, wakes[0]), wakes[1:]
		}
	}
	step = append(step, awake...)
	s.stepList = append(step, wakes...)
}

// mergeStepped rebuilds the awake list from the vertices that stepped this
// round (only they can have changed state) and arms their SleepUntil
// timers. Every stepped vertex entered its Round call with asleep=false and
// wakeAt=0, so a vertex sleeping with a timer is pushed onto the heap
// exactly once per sleep.
func (s *Simulator) mergeStepped() {
	awake := s.awake[:0]
	for _, id := range s.stepList {
		v := &s.verts[id]
		switch {
		case v.halted:
			// Dropped from all lists; queued sends still deliver next round.
		case v.asleep:
			s.armTimer(v, int(id))
		default:
			awake = append(awake, id)
		}
	}
	s.awake = awake
}

// armTimer pushes a sleeping vertex's SleepUntil wake onto the heap, unless
// a live entry for the same (vertex, round) already exists. The dedup
// matters for workloads where a vertex is repeatedly message-woken and
// re-sleeps toward the same far-future round (the routing exchange's final
// output round, say): without it, every wake would stack one more stale
// entry that survives until that round. timerStamp records the latest round
// pushed per vertex; rounds never repeat within an execution, so the stamp
// never needs clearing on pop.
func (s *Simulator) armTimer(v *Vertex, id int) {
	if v.wakeAt > 0 && s.timerStamp[id] != v.wakeAt {
		s.timerStamp[id] = v.wakeAt
		s.timers.push(packTimer(v.wakeAt, id))
	}
}

// resetSchedule clears the scheduler for a fresh execution, before Init
// queues anything: all worklists, pending counts (a failed run may leave
// some, and Send lists a receiver only when its count is zero) and stamps
// (round numbers restart at 1 each run, so stale stamps from a previous
// execution must not alias).
func (s *Simulator) resetSchedule() {
	s.stepList = s.stepList[:0]
	s.wakeList = s.wakeList[:0]
	s.deliverList = s.deliverList[:0]
	s.awake = s.awake[:0]
	s.timers = s.timers[:0]
	for id := range s.verts {
		s.pendingCount[id] = 0
		s.inboxRound[id] = 0
		s.timerStamp[id] = 0
	}
}
