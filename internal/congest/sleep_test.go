package congest_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// TestSleepWakeOnMessage checks the core quiescence contract: a vertex that
// sleeps until a far-off round is not stepped until a message actually
// reaches it, and the round it wakes in is exactly the delivery round of
// that message.
func TestSleepWakeOnMessage(t *testing.T) {
	g := graph.Path(2)
	var stepped []int
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	_, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		if v.ID() == 1 {
			return congest.RunFuncs{
				InitFn: func(v *congest.Vertex) { v.SleepUntil(1 << 30) },
				RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
					stepped = append(stepped, round)
					if len(recv) != 1 {
						t.Errorf("woken vertex got %d messages, want 1", len(recv))
					}
					v.Halt()
				},
			}
		}
		return congest.RunFuncs{
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				if round == 3 {
					v.Send(0, congest.Message{42})
					v.Halt()
				}
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The message is sent in round 3, so it is delivered — and the sleeper
	// stepped — in round 4, and never before.
	if len(stepped) != 1 || stepped[0] != 4 {
		t.Errorf("sleeper stepped in rounds %v, want [4]", stepped)
	}
}

// TestDroppedMessageDoesNotWake pins the fault-interaction rule: the wake
// decision is made after the fault filter, so a message dropped in transit
// must not wake a sleeping receiver — even though the send is still charged
// to the metrics (faults drop delivery, never the cost).
func TestDroppedMessageDoesNotWake(t *testing.T) {
	g := graph.Path(2)
	sleeperSteps := 0
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, FaultRate: 1.0})
	ex := sim.Start(func(v *congest.Vertex) congest.Handler {
		if v.ID() == 1 {
			return congest.RunFuncs{
				InitFn: func(v *congest.Vertex) { v.SleepUntil(1 << 30) },
				RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
					sleeperSteps++
				},
			}
		}
		return congest.RunFuncs{
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				v.Send(0, congest.Message{int64(round)})
			},
		}
	})
	defer ex.Close()
	for i := 0; i < 10; i++ {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if sleeperSteps != 0 {
		t.Errorf("sleeper stepped %d times on dropped messages, want 0", sleeperSteps)
	}
	if m := ex.Metrics(); m.Messages != 10 {
		t.Errorf("dropped sends counted %d messages, want 10", m.Messages)
	}
}

// TestSleepUntilTimer checks the explicit timer path: SleepUntil(r) skips the
// vertex until exactly round r with no message involved, and the skipped
// rounds still execute and count.
func TestSleepUntilTimer(t *testing.T) {
	g := graph.Path(2)
	var stepped []int
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	res, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		if v.ID() == 1 {
			return congest.RunFuncs{RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				v.Halt()
			}}
		}
		return congest.RunFuncs{
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				stepped = append(stepped, round)
				if round >= 5 {
					v.Halt()
					return
				}
				v.SleepUntil(5)
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stepped) != 2 || stepped[0] != 1 || stepped[1] != 5 {
		t.Errorf("timer vertex stepped in rounds %v, want [1 5]", stepped)
	}
	// The intermediate rounds still happen — sleeping compresses work, not
	// the round count.
	if res.Metrics.Rounds != 5 {
		t.Errorf("rounds = %d, want 5", res.Metrics.Rounds)
	}
}

// TestSleepUntilPastRoundIsNoOp checks that SleepUntil with a target at or
// before the next round cannot stall the vertex: it keeps stepping normally.
func TestSleepUntilPastRoundIsNoOp(t *testing.T) {
	g := graph.Path(2)
	steps := 0
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	_, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		return congest.RunFuncs{RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			if v.ID() == 0 {
				steps++
				v.SleepUntil(round) // already past: must be ignored
				v.SleepUntil(round + 1)
			}
			if round == 3 {
				v.Halt()
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Errorf("vertex stepped %d times, want 3 (SleepUntil past round must not stall)", steps)
	}
}

// TestHaltDominatesSleep checks that Halt wins over any sleep state: a halted
// vertex never reappears on the step list even if messages arrive or a
// previously armed timer expires.
func TestHaltDominatesSleep(t *testing.T) {
	g := graph.Path(2)
	steps := 0
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	_, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		if v.ID() == 0 {
			return congest.RunFuncs{RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				steps++
				v.SleepUntil(4) // arm a timer...
				v.Halt()        // ...then halt: the timer must be dead
			}}
		}
		return congest.RunFuncs{RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			v.Send(0, congest.Message{1}) // messages to the halted vertex
			if round == 5 {
				v.Halt()
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Errorf("halted vertex stepped %d times, want 1", steps)
	}
}

// TestStaleInboxNotReobserved checks the stale-inbox guard: a vertex that
// received messages, slept, and was later woken by a timer must see an empty
// recv slice — not the leftover inbox contents from the earlier round.
func TestStaleInboxNotReobserved(t *testing.T) {
	g := graph.Path(2)
	var recvLens []int
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	_, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		if v.ID() == 0 {
			return congest.RunFuncs{
				InitFn: func(v *congest.Vertex) { v.Send(0, congest.Message{7}) },
				RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
					v.Halt()
				},
			}
		}
		return congest.RunFuncs{RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			recvLens = append(recvLens, len(recv))
			if round >= 4 {
				v.Halt()
				return
			}
			v.SleepUntil(4)
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: the Init message arrives. Round 4: timer wake, nothing new —
	// the round-1 inbox contents must not be re-delivered.
	if len(recvLens) != 2 || recvLens[0] != 1 || recvLens[1] != 0 {
		t.Errorf("recv lengths at steps = %v, want [1 0]", recvLens)
	}
}

// sleepyFlood is a randomized workload that exercises every wake path at
// once: vertices flood a token, each absorbing vertex draws a PRNG-dependent
// nap length before echoing, and idle vertices sleep until a far-off round,
// so only a message wakes them. TestPinnedWorkloads pins its outputs and
// Metrics.
func sleepyFlood(v *congest.Vertex) congest.Handler {
	seen := v.ID() == 0
	dist := 0
	echoed := false
	wake := 0
	return congest.RunFuncs{
		InitFn: func(v *congest.Vertex) {
			if seen {
				echoed = true
				v.Broadcast(congest.Message{0})
			} else {
				v.SleepUntil(1 << 30)
			}
		},
		RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			if !seen {
				if len(recv) == 0 {
					v.SleepUntil(1 << 30)
					return
				}
				seen = true
				best := recv[0].Msg[0]
				for _, in := range recv[1:] {
					if in.Msg[0] < best {
						best = in.Msg[0]
					}
				}
				dist = int(best) + 1
				// PRNG-dependent nap: the echo round depends on the vertex's
				// private stream, so any scheduling dependence in the PRNG
				// would move the pinned outputs. A nap of one round makes
				// SleepUntil a no-op; the vertex simply steps again and
				// echoes when the wake round arrives.
				wake = round + v.Rand().Intn(3)
				if wake > round {
					v.SleepUntil(wake)
					return
				}
			}
			if !echoed {
				if wake > round {
					return
				}
				echoed = true
				v.Broadcast(congest.Message{int64(dist)})
			}
			v.SetOutput(dist*1000 + wake)
			v.Halt()
		},
	}
}

// TestSteadyStateZeroAllocsWithSleep checks that the sparse scheduler keeps
// the steady-state round loop allocation-free under continuous sleep/wake
// churn: half the vertices ping-pong via message wakes, half via timers, so
// the next-round set and the timer heap change every round.
func TestSteadyStateZeroAllocsWithSleep(t *testing.T) {
	g := graph.Grid(16, 16)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1})
	ex := sim.Start(func(v *congest.Vertex) congest.Handler {
		val := int64(v.ID())
		timered := v.ID()%2 == 0
		return congest.RunFuncs{
			InitFn: func(v *congest.Vertex) { v.BroadcastWords(val) },
			RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
				v.BroadcastWords(val)
				if timered {
					v.SleepUntil(round + 2)
				} else {
					v.SleepUntil(1 << 30) // woken next round by a neighbor's broadcast
				}
			},
		}
	})
	defer ex.Close()
	for i := 0; i < 6; i++ {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ex.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Step with sleep churn allocates %.1f times per round, want 0", allocs)
	}
}

// TestTraceActiveCountsStepped pins the trace schema semantics after the
// sparse-scheduler change: the per-round "active" field counts the vertices
// actually stepped that round, so sleeping vertices are excluded and a
// timer-gap round reports zero.
func TestTraceActiveCountsStepped(t *testing.T) {
	g := graph.Path(4)
	obs := congest.NewObserver()
	var buf bytes.Buffer
	obs.EnableTrace(&buf, 16)
	sim := congest.NewSimulator(g, congest.Config{Seed: 1, Obs: obs})
	_, err := sim.Run(func(v *congest.Vertex) congest.Handler {
		return congest.RunFuncs{RoundFn: func(v *congest.Vertex, round int, recv []congest.Incoming) {
			if v.ID() != 0 {
				v.Halt()
				return
			}
			if round >= 3 {
				v.Halt()
				return
			}
			v.SleepUntil(3)
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	var actives []int
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev congest.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		actives = append(actives, ev.Active)
	}
	// Round 1: all 4 step. Round 2: vertex 0 sleeps on a timer, the rest are
	// halted — nobody steps. Round 3: the timer fires, vertex 0 steps alone.
	want := []int{4, 0, 1}
	if len(actives) != len(want) {
		t.Fatalf("trace has %d rounds (active=%v), want %d", len(actives), actives, len(want))
	}
	for i := range want {
		if actives[i] != want[i] {
			t.Errorf("round %d active = %d, want %d", i+1, actives[i], want[i])
		}
	}
}
