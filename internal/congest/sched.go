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
//                  order the senders' outboxes list them.
//   - wakeList:    sleeping vertices woken this round by a delivered message
//                  or an expired SleepUntil timer, ascending once sorted.
//   - stepList:    vertices actually stepped this round — awake merged with
//                  wakeList, ascending by ID.
//
// All four are rebuilt at round barriers from per-vertex state, never
// concurrently with handlers, and all live in buffers preallocated to
// capacity n by buildLayout, so the steady-state round loop remains
// allocation-free. stepList order fixes the parallel executor's compute
// chunk boundaries — and therefore panic attribution — so it matches the
// sequential path bit for bit. deliverList needs no order: delivery is
// receiver-local and each inbox is filled from the receiver's own ports, so
// no output depends on which worker delivers which receiver. Only the wake
// list, usually a small fraction of the step list, is sorted each round.

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
// SleepUntil timer expires this round. Runs sequentially at the barrier
// between the delivery and compute phases.
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

// mergeStepped is the sparse counterpart of mergeShards: it drains the
// metrics shards of the vertices that stepped this round (only they can have
// accumulated anything), rebuilds the awake list and the next round's
// deliverList, and arms SleepUntil timers. Every stepped vertex entered its
// Round call with asleep=false and wakeAt=0, so a vertex sleeping with a
// timer is pushed onto the heap exactly once per sleep.
//
// deliverList is derived by walking the outboxes of stepped vertices that
// sent at least one message; deliverStamp dedups receivers with the delivery
// round as the stamp (strictly increasing across barriers, reset by Start).
// pendingCount tallies the messages queued to each listed receiver alongside
// the dedup — it is the delivery-phase balance weight (parallel.go) and is
// only meaningful for vertices stamped with the current delivery round.
func (s *Simulator) mergeStepped(round int) {
	var phaseSends int64
	dr := round + 1
	s.deliverList = s.deliverList[:0]
	awake := s.awake[:0]
	for _, id := range s.stepList {
		v := &s.verts[id]
		s.metrics.Messages += v.local.messages
		s.metrics.Words += v.local.words
		phaseSends += v.local.messages
		s.haltedCount += v.local.halts
		if v.local.maxWords > s.metrics.MaxWordsPerMsg {
			s.metrics.MaxWordsPerMsg = v.local.maxWords
		}
		if s.obs != nil && v.local.messages != 0 {
			if v.local.maxWords > s.roundMax {
				s.roundMax = v.local.maxWords
			}
			for b, c := range v.local.hist {
				if c != 0 {
					s.roundHist[b] += c
				}
			}
		}
		if v.local.messages != 0 {
			for p, m := range v.outbox {
				if m == nil {
					continue
				}
				rcv := v.ports[p]
				if s.deliverStamp[rcv] != dr {
					s.deliverStamp[rcv] = dr
					s.pendingCount[rcv] = 1
					s.deliverList = append(s.deliverList, rcv)
				} else {
					s.pendingCount[rcv]++
				}
			}
		}
		v.local = vertexMetrics{}
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
	s.pendingMsgs = phaseSends
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

// resetSchedule re-arms the scheduler for a fresh execution: clears all
// worklists and stamps (round numbers restart at 1 each run, so stale stamps
// from a previous execution must not alias) and rebuilds the initial awake
// set, delivery list, and timer heap from the post-Init vertex state.
func (s *Simulator) resetSchedule() {
	s.stepList = s.stepList[:0]
	s.wakeList = s.wakeList[:0]
	s.deliverList = s.deliverList[:0]
	s.timers = s.timers[:0]
	awake := s.awake[:0]
	for id := range s.verts {
		s.deliverStamp[id] = 0
		s.inboxRound[id] = 0
		s.timerStamp[id] = 0
	}
	for id := range s.verts {
		v := &s.verts[id]
		for p, m := range v.outbox {
			if m == nil {
				continue
			}
			rcv := v.ports[p]
			if s.deliverStamp[rcv] != 1 {
				s.deliverStamp[rcv] = 1
				s.pendingCount[rcv] = 1
				s.deliverList = append(s.deliverList, rcv)
			} else {
				s.pendingCount[rcv]++
			}
		}
		switch {
		case v.halted:
		case v.asleep:
			s.armTimer(v, id)
		default:
			awake = append(awake, int32(id))
		}
	}
	s.awake = awake
}
