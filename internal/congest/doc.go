// Package congest implements a synchronous message-passing simulator for the
// LOCAL and CONGEST models of distributed computing, the execution substrate
// for every distributed algorithm in this repository.
//
// Model semantics follow the paper's Section 1: vertices host processors and
// operate in synchronized rounds; in each round every vertex may send one
// message to each of its neighbors, receives the messages its neighbors sent
// this round, and performs arbitrary local computation. In the LOCAL model
// messages are unbounded; in the CONGEST model each message is limited to
// O(log n) bits.
//
// Messages are tuples of integer words. In CONGEST mode a message may carry
// at most MaxWords (8) words and each word must satisfy |w| ≤ max(n², 2¹⁶)
// — i.e. a word is Θ(log n) bits — so a message is Θ(log n) bits total.
// Violations panic: an algorithm that breaks the model is a programming
// error, not a runtime condition.
//
// Execution is deterministic given Config.Seed: every vertex draws from its
// own 8-byte splitmix64 stream, which Start seeds from a hash of (Seed,
// vertex ID), so repeated runs repeat every draw; each inbox lists arrivals
// in ascending sender-ID order; and fault-injection coins are pure hashes of
// (seed, round, sender, receiver). Because handler randomness is per-vertex
// and inbox order is canonical, the execution order of vertices within a
// round cannot be observed by a (well-formed) handler.
//
// One goroutine executes every round: each stepped vertex's Round call in
// ascending ID order. Send delivers at once: it stamps the port with the
// delivery round, adds the message's costs to the run's Metrics, draws its
// fault coin, and writes a surviving message straight into the receiver's
// inbox for the next round. Halt counts toward termination at once, and each
// vertex joins the next round's schedule as its call returns, so the round
// barrier only adds the due wakes, kept on a timing wheel keyed by round,
// and reads the schedule out. Stepping in
// ascending ID order keeps every inbox ascending by sender, which is the
// canonical inbox order.
//
// A run ends when every vertex has halted and every queued message has been
// delivered: sends queued in a vertex's final round still cost (and are
// accounted as) one delivery round, per the documented Halt contract.
//
// # Execution lifecycle
//
// An algorithm is a Handler constructed once per vertex. The simplest entry
// point runs it to completion:
//
//	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
//	res, err := sim.Run(newHandler)
//
// Run is a thin wrapper over the three-stage Execution API, which harness
// code uses when it needs control between rounds (early stopping, phase
// annotation, interleaving with other work):
//
//	e := sim.Start(newHandler) // resets run state, runs every Init (its sends arrive in round 1)
//	for {
//	    done, err := e.Step()  // one synchronized round: assemble, compute, barrier
//	    if err != nil { ... }  // ErrMaxRounds when Config.MaxRounds is exceeded
//	    if done { break }      // all vertices halted, every message sent delivered
//	}
//	res := e.Finish()          // collects per-vertex outputs, releases the execution
//
// Start panics if a previous execution on the same Simulator is still
// active; Finish (or Close, which Finish implies and which is safe to defer
// alongside it) re-arms the Simulator for the next Start. Metrics and Round
// may be read between Steps and are exact at every round barrier. The warm
// Step loop performs zero heap allocations (see DESIGN.md §3.8); the
// substrate benchmarks enforce this.
//
// # Memory layout and message arenas
//
// The steady-state round loop is allocation-free (see DESIGN.md §3.8). The
// vertex table is stored CSR-style: one value slice of Vertex records whose
// ports, reverse ports, send stamps, and the inbox slots of both round
// parities occupy the same contiguous range of shared flat arrays, built
// once per Simulator and reused across Run calls. Handlers that need
// per-round message buffers should use Vertex.MsgBuf (or the
// SendWords/BroadcastWords conveniences), which recycles the simulator's
// double-buffered arena — one pair for all vertices — instead of
// allocating.
//
// Arena lifetime contract: a Message received in a Round call is valid only
// until that Round call returns. Handlers that retain a message across
// rounds must Clone it. Messages built by MsgBuf in round r are reclaimed in
// round r+2, strictly after every receiver has finished reading them.
//
// # Quiescence and sparse scheduling
//
// A handler that can prove its vertex does nothing for a while — sends
// nothing, draws no randomness, changes no externally visible state — may
// declare quiescence with the one sleep primitive (DESIGN.md §3.10):
//
//	v.SleepUntil(r)  // skip me until round r, or until a message arrives
//
// The paper's phases run schedules fixed in advance, so every handler knows
// the round it next has work in; a far-off r waits for a message alone.
// The simulator then schedules each round from one set of next-round
// candidates: the vertices still awake after their last call, the receivers
// of a message, and the sleepers whose timer is due. A round costs
// O(stepped + messages) instead of O(n + m). Sleeping is an optimization
// hint with exact semantics: rounds are still counted, message delivery,
// ordering, fault coins, and PRNG streams are unchanged, and results are
// bit-identical to the dense schedule (the golden tests pin this). A message
// dropped by fault injection does not wake its receiver. Halt dominates
// sleep, and a vertex woken by a timer with no fresh delivery sees an empty
// recv slice — never its stale inbox.
//
// # Observability
//
// Attaching an Observer via Config.Obs turns the end-of-run Metrics
// aggregate into a per-phase, per-round account (DESIGN.md §3.9). Harness
// code brackets stages of an algorithm with Execution.BeginPhase /
// EndPhase (or Observer.BeginPhase directly, around whole Run calls); every
// executed round — with its messages, words, bits, and a message-size
// histogram — is attributed to the innermost open phase. Observer.Report
// serializes the resulting phase tree; Observer.EnableTrace streams one
// JSONL event per round through a fixed ring buffer.
//
// The observer is strictly passive (it cannot change outputs or Metrics),
// and its cost is budgeted: with an Observer attached but tracing disabled
// the warm Step loop still performs zero heap allocations per round, and
// with tracing enabled a steady-state round must stay under 2× its untraced
// cost — both enforced by tests in this package.
package congest
