package congest

import (
	"testing"

	"expandergap/internal/graph"
)

// pingHandler sends one message per round from even vertices to odd and
// counts deliveries.
func TestFaultRateDropsMessages(t *testing.T) {
	g := graph.CompleteBipartite(10, 10)
	count := func(rate float64) int64 {
		sim := NewSimulator(g, Config{Seed: 1, FaultRate: rate})
		delivered := int64(0)
		_, err := sim.Run(func(v *Vertex) Handler {
			return RunFuncs{
				InitFn: func(v *Vertex) {
					if v.ID() < 10 {
						v.Broadcast(Message{1})
					}
				},
				RoundFn: func(v *Vertex, round int, recv []Incoming) {
					delivered += int64(len(recv))
					v.Halt()
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return delivered
	}
	full := count(0)
	if full != 100 {
		t.Fatalf("fault-free delivery = %d, want 100", full)
	}
	lossy := count(0.5)
	if lossy >= full || lossy == 0 {
		t.Errorf("lossy delivery = %d, want strictly between 0 and %d", lossy, full)
	}
	none := count(1.0)
	if none != 0 {
		t.Errorf("rate-1.0 delivery = %d, want 0", none)
	}
}

func TestFaultDeterministicGivenSeed(t *testing.T) {
	g := graph.Complete(8)
	run := func() int64 {
		sim := NewSimulator(g, Config{Seed: 9, FaultRate: 0.3})
		total := int64(0)
		_, err := sim.Run(func(v *Vertex) Handler {
			return RunFuncs{
				InitFn: func(v *Vertex) { v.Broadcast(Message{1}) },
				RoundFn: func(v *Vertex, round int, recv []Incoming) {
					total += int64(len(recv))
					v.Halt()
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	if run() != run() {
		t.Error("fault injection nondeterministic across identical runs")
	}
}

// Regression: the drop coin for one message must depend only on
// (seed, round, sender, receiver) — never on what other messages exist.
// Previously drops consumed a shared PRNG in iteration order, so adding an
// unrelated sender perturbed which other messages dropped.
func TestFaultPatternStableUnderUnrelatedTraffic(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	const rounds = 40
	// deliveredAt reports in which rounds vertex 1 heard from vertex 0,
	// with vertex 2 chattering (or not) in the background.
	deliveredAt := func(chatter bool) []int {
		sim := NewSimulator(g, Config{Seed: 6, FaultRate: 0.5, MaxRounds: rounds + 2})
		var hits []int
		_, err := sim.Run(func(v *Vertex) Handler {
			return RunFuncs{
				InitFn: func(v *Vertex) {
					if v.ID() == 0 || (chatter && v.ID() == 2) {
						v.Broadcast(Message{int64(v.ID())})
					}
				},
				RoundFn: func(v *Vertex, round int, recv []Incoming) {
					if round > rounds {
						v.Halt()
						return
					}
					switch v.ID() {
					case 0:
						v.Broadcast(Message{0})
					case 1:
						for _, in := range recv {
							if in.From == 0 {
								hits = append(hits, round)
							}
						}
					case 2:
						if chatter {
							v.Broadcast(Message{2})
						}
					}
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	quiet := deliveredAt(false)
	noisy := deliveredAt(true)
	if len(quiet) == 0 || len(quiet) == rounds {
		t.Fatalf("want a mixed drop pattern at rate 0.5, got %d/%d deliveries", len(quiet), rounds)
	}
	if len(quiet) != len(noisy) {
		t.Fatalf("0→1 drop pattern changed with unrelated traffic: %v vs %v", quiet, noisy)
	}
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("0→1 drop pattern changed with unrelated traffic: %v vs %v", quiet, noisy)
		}
	}
}

func TestFaultsStillCountAsSent(t *testing.T) {
	g := graph.Path(2)
	sim := NewSimulator(g, Config{Seed: 2, FaultRate: 1.0})
	res, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{
			InitFn: func(v *Vertex) {
				if v.ID() == 0 {
					v.Send(0, Message{1, 2})
				}
			},
			RoundFn: func(v *Vertex, round int, recv []Incoming) {
				if len(recv) != 0 {
					t.Error("message delivered despite rate 1.0")
				}
				v.Halt()
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 1 || res.Metrics.Words != 2 {
		t.Errorf("metrics = %+v, want the dropped message counted as sent", res.Metrics)
	}
}

// TestAllDroppedRoundStillRuns halts every vertex right after a broadcast
// that fault injection drops entirely. No message reaches an inbox and no
// vertex is scheduled, yet the messages were sent: the run must execute
// (and count) their delivery round before it finishes.
func TestAllDroppedRoundStillRuns(t *testing.T) {
	g := graph.Path(4)
	sim := NewSimulator(g, Config{Seed: 1, FaultRate: 1})
	res, err := sim.Run(func(v *Vertex) Handler {
		return RunFuncs{RoundFn: func(v *Vertex, round int, recv []Incoming) {
			v.BroadcastWords(1)
			v.Halt()
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 2 || res.Metrics.Messages != int64(2*g.M()) {
		t.Errorf("%d rounds, %d messages; want 2 rounds, %d messages", res.Metrics.Rounds, res.Metrics.Messages, 2*g.M())
	}
}

// TestFaultCoinsOfNearbySeedsAreUnrelated checks that the fault coins of
// seeds 1 and 2 are not one sequence shifted in round: over rounds 1–64 on a
// few (from, to) pairs, no coin of one seed equals any coin of the other.
// Adding the round to the unmixed seed made faultCoin(1, r+3, from, to)
// equal faultCoin(2, r, from, to).
func TestFaultCoinsOfNearbySeedsAreUnrelated(t *testing.T) {
	for _, p := range [][2]int{{0, 1}, {1, 0}, {3, 7}, {12, 5}} {
		seen := make(map[float64]int)
		for r := 1; r <= 64; r++ {
			seen[faultCoin(1, r, p[0], p[1])] = r
		}
		for r := 1; r <= 64; r++ {
			if r1, ok := seen[faultCoin(2, r, p[0], p[1])]; ok {
				t.Errorf("(from, to) = %v: seed 2's coin at round %d is seed 1's at round %d", p, r, r1)
			}
		}
	}
}
