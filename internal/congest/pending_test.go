package congest_test

import (
	"math/rand"
	"reflect"
	"testing"

	"expandergap/internal/congest"
	"expandergap/internal/graph"
)

// descendingSender sends, in every round up to its last, on a round-dependent
// subset of its ports in descending port order — the reverse of the order
// inboxes must come out in — and records the sender IDs of every inbox it
// receives. Its output is the history of inboxes, one per round.
type descendingSender struct {
	last    int
	history [][]int
}

func (h *descendingSender) send(v *congest.Vertex, round int) {
	for p := v.Degree() - 1; p >= 0; p-- {
		if (p+round+v.ID())%3 != 0 {
			v.SendWords(p, int64(v.ID()), int64(round))
		}
	}
}

func (h *descendingSender) Init(v *congest.Vertex) { h.send(v, 0) }

func (h *descendingSender) Round(v *congest.Vertex, round int, recv []congest.Incoming) {
	from := make([]int, len(recv))
	for i, in := range recv {
		from[i] = in.From
		if in.Msg[0] != int64(in.From) || in.Msg[1] != int64(round-1) || v.NeighborID(in.Port) != in.From {
			panic("congest test: message delivered on the wrong port or from the wrong round")
		}
	}
	h.history = append(h.history, from)
	if round >= h.last {
		v.SetOutput(h.history)
		v.Halt()
		return
	}
	h.send(v, round)
}

// TestInboxAscendingBySender checks that pending-list delivery keeps every
// inbox ascending by sender ID when handlers send in descending port order,
// with and without fault injection.
func TestInboxAscendingBySender(t *testing.T) {
	g := graph.Disjoint(graph.ErdosRenyi(150, 0.06, rand.New(rand.NewSource(3))), graph.Star(40))
	for _, fault := range []float64{0, 0.3} {
		sim := congest.NewSimulator(g, congest.Config{Seed: 5, FaultRate: fault})
		res, err := sim.Run(func(v *congest.Vertex) congest.Handler { return &descendingSender{last: 6} })
		if err != nil {
			t.Fatalf("fault=%v: %v", fault, err)
		}
		received := 0
		for id, out := range res.Outputs {
			for round, from := range out.([][]int) {
				for i := 1; i < len(from); i++ {
					if from[i-1] >= from[i] {
						t.Fatalf("fault=%v: vertex %d round %d inbox not ascending by sender: %v",
							fault, id, round+1, from)
					}
				}
				received += len(from)
			}
		}
		if fault == 0 && int64(received) != res.Metrics.Messages {
			t.Errorf("%d messages received, %d sent", received, res.Metrics.Messages)
		}
		if fault > 0 && int64(received) >= res.Metrics.Messages {
			t.Errorf("fault rate %v dropped nothing (%d of %d received)", fault, received, res.Metrics.Messages)
		}
	}
}

// TestRunAfterFailedRun reuses a Simulator whose previous run stopped at
// MaxRounds with messages still queued and every vertex still scheduled for
// the next round: the next run must match a fresh Simulator's exactly, so
// nothing the failed run left in the inboxes or the schedule survives Start.
// One follow-up sends every round; the other sleeps from Init to round 3, so
// a vertex stepped early by a stale schedule shows in its output.
func TestRunAfterFailedRun(t *testing.T) {
	g := graph.ErdosRenyi(80, 0.1, rand.New(rand.NewSource(8)))
	cfg := congest.Config{Seed: 2, MaxRounds: 3}
	followUps := []struct {
		name       string
		newHandler func(v *congest.Vertex) congest.Handler
	}{
		{"short", func(v *congest.Vertex) congest.Handler { return &descendingSender{last: 2} }},
		{"sleeper", func(v *congest.Vertex) congest.Handler {
			var stepped []int
			return congest.RunFuncs{
				InitFn: func(v *congest.Vertex) { v.SleepUntil(3) },
				RoundFn: func(v *congest.Vertex, round int, _ []congest.Incoming) {
					stepped = append(stepped, round)
					v.SetOutput(stepped)
					v.Halt()
				},
			}
		}},
	}
	for _, f := range followUps {
		reused := congest.NewSimulator(g, cfg)
		if _, err := reused.Run(func(v *congest.Vertex) congest.Handler { return &descendingSender{last: 6} }); err == nil {
			t.Fatal("a 6-round run finished under MaxRounds 3")
		}
		got, err := reused.Run(f.newHandler)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		want, err := congest.NewSimulator(g, cfg).Run(f.newHandler)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run after a failed run differs from a fresh simulator's:\n%+v\n%+v", f.name, got.Metrics, want.Metrics)
		}
	}
}
