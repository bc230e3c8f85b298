// Package routing implements the information-gathering machinery of Section
// 2.2 of the paper: routing O(log n)-bit tokens from every cluster vertex to
// the cluster leader v*, and routing per-token responses back.
//
// The forward direction follows Lemma 2.4 literally: each token performs a
// uniform lazy random walk restricted to its cluster until it hits the
// leader. Congestion is handled exactly as the model requires — at most one
// token crosses an edge per direction per round; blocked tokens wait, which
// is the O(log n) slowdown the lemma's Chernoff argument budgets for.
//
// The reverse direction implements the paper's "reversing the routing
// procedure" (§2.2 and §2.3) without any per-token lookup. A queued token
// carries the (port, phase round) of the arrival that brought it, and every
// forward send appends a departure — its round, its port and that arrival —
// to the exchange's one departure log, in send order, which is round order.
// Each departure also links to the sending relay's previous one, and a relay
// keeps only the index of its latest, so each relay's departures form a
// chain in descending round order. At most one token crosses any (edge,
// direction, round), so (round, port) names exactly one departure; a
// response leaving the leader at 2T+2-a for an arrival at round a reaches
// the previous vertex at round 2T+2-d on the port its departure at d used,
// and so on back to the origin. Reverse arrivals therefore come in
// decreasing departure round: departures above the current one belong to
// tokens that never came back and are dropped from the chain's head, and the
// match follows at most deg(v) links among the entries that share the round.
// The reverse phase thus reads the log backward, in round order. The undone
// departure's arrival says where the response goes next (port -1: it is
// home). The reverse schedule is collision-free for the same reason, and
// adds no words to any message. A relay's pending reverse sends wait in a
// min-heap on their due round. The sends pending at reverse round 2T+2-F
// answer the tokens the relay held at forward round F, so before the first
// reverse round the exchange carves every relay's heap out of one slab,
// sized by the most tokens it held at once. A finished exchange keeps its
// departure log for the next one, in a store the GC does not empty.
//
// A deterministic tree strategy (tokens climb a BFS tree toward the leader,
// FIFO per edge) stands in for the paper's Lemma 2.5 deterministic routing;
// it has the same interface and failure semantics. A relay resolves its
// parent port once and sends the token at its queue's head each round.
//
// Undelivered tokens (forward budget exhausted) simply produce no response;
// origins detect the failure locally, which is exactly the failure-detection
// behavior §2.3 builds on.
//
// An exchange has a fixed schedule of 2T+3 simulator rounds (T =
// Plan.ForwardRounds): one setup round, then phase rounds 1..2T+2. It fails
// with congest.ErrMaxRounds before its first round when that exceeds the
// simulator's round limit. The package drives the simulator through the
// Execution Step API so the schedule maps onto observer phases when a
// congest.Observer is attached: round 1 is "setup" (the cluster-ID broadcast
// that discovers same-cluster ports), rounds 2..T+1 are "forward" (walk steps
// toward the leader), and the remaining rounds are "reverse" (leader
// responses retracing the walks).
package routing
