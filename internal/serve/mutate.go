package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"expandergap/internal/expander"
	"expandergap/internal/graph"
)

// POST /mutate applies a batch of graph mutations to the current snapshot and
// swaps in a successor, reusing the existing hot-swap machinery end to end:
// the successor is built entirely off to the side (an Overlay over the
// current immutable graph, compacted to a fresh CSR), the epoch advances,
// the result cache rolls to the new epoch, and the predecessor is retired —
// in-flight queries keep the snapshot they pinned, so a mutation never drops
// or torments a concurrent /query.
//
// The decomposition of the successor is maintained incrementally
// (expander.DecomposeIncremental): clusters untouched by the batch carry
// over, touched ones are re-certified, and only broken ones are
// re-decomposed. "full": true forces a from-scratch Decompose instead (the
// re-baselining escape hatch for ε-budget drift; see the staleness note on
// DecomposeIncremental).

// MutateOp is the wire form of one graph.Op, its verb graph.OpKind's
// String: "+" edge insert (optional positive weight), "-" edge delete, "+v"
// vertex add, "-v" vertex delete.
type MutateOp struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
	W  int64  `json:"w,omitempty"`
}

// MutateRequest is the POST /mutate body.
type MutateRequest struct {
	Ops []MutateOp `json:"ops"`
	// Full forces a from-scratch decomposition of the mutated graph instead
	// of incremental maintenance.
	Full bool `json:"full,omitempty"`
}

// MutateResponse is the POST /mutate answer.
type MutateResponse struct {
	Epoch   int64 `json:"epoch"`
	N       int   `json:"n"`
	M       int   `json:"m"`
	Applied int   `json:"applied"`
	// Incremental reports whether the decomposition was maintained
	// incrementally (false when Full was requested).
	Incremental bool `json:"incremental"`
	Clusters    int  `json:"clusters"`
	// Reused/Broken/NewClusters describe the incremental maintenance work
	// (zero when Full).
	Reused        int     `json:"reused"`
	Broken        int     `json:"broken"`
	NewClusters   int     `json:"new_clusters"`
	ReuseFraction float64 `json:"reuse_fraction"`
	CutFraction   float64 `json:"cut_fraction"`
	BuildMs       float64 `json:"build_ms"`
	// MutationsTotal is the cumulative op count applied to the serving graph
	// since it was last loaded from its spec path (a /reload resets it).
	MutationsTotal int64 `json:"mutations_total"`
}

func (op MutateOp) toGraphOp() (graph.Op, error) {
	var g graph.Op
	switch op.Op {
	case "+":
		g.Kind = graph.OpAddEdge
	case "-":
		g.Kind = graph.OpDeleteEdge
	case "+v":
		g.Kind = graph.OpAddVertex
	case "-v":
		g.Kind = graph.OpDeleteVertex
	default:
		return g, fmt.Errorf("unknown op verb %q (want +, -, +v, -v)", op.Op)
	}
	g.U, g.V, g.W = op.U, op.V, op.W
	if g.Kind == graph.OpAddEdge && g.W < 0 {
		return g, fmt.Errorf("negative weight %d", g.W)
	}
	return g, nil
}

// Mutate applies ops to the current snapshot's graph and swaps in the
// successor. It shares reloadMu with Reload, so snapshot builds are
// serialized; queries are never blocked — they read cur lock-free and pin
// whichever snapshot they observe.
func (s *Server) Mutate(ops []graph.Op, full bool) (*Snapshot, *MutateResponse, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur, err := s.snapshot() // pinned: even a concurrent Close cannot unmap it mid-build
	if err != nil {
		return nil, nil, err
	}
	defer cur.release()

	t0 := time.Now()
	ov := graph.NewOverlay(cur.G)
	if n, err := ov.ApplyAll(ops); err != nil {
		s.mutateErrors.Add(1)
		return nil, nil, &mutateOpError{index: n, err: err}
	}

	var (
		g     *graph.Graph
		dec   *expander.Decomposition
		stats *expander.IncrementalStats
	)
	opts := expander.Options{Seed: cur.Spec.Seed, Workers: cur.Spec.DecWorkers}
	if full {
		g, err = ov.Compact()
		if err == nil {
			dec, err = expander.Decompose(g, cur.Spec.Eps, opts)
		}
	} else {
		dec, g, stats, err = expander.DecomposeIncremental(cur.Dec, ov, cur.Spec.Eps, opts)
	}
	if err != nil {
		s.mutateErrors.Add(1)
		return nil, nil, fmt.Errorf("rebuilding decomposition: %w", err)
	}
	buildDur := time.Since(t0)

	epoch := s.epoch.Load() + 1
	snap := &Snapshot{
		Epoch:         epoch,
		Spec:          cur.Spec,
		G:             g,
		Dec:           dec,
		Leader:        computeLeaders(g, dec),
		WalkBudget:    defaultWalkBudget(dec.Phi, g.N()),
		Mutations:     cur.Mutations + int64(len(ops)),
		LoadDuration:  0,
		BuildDuration: buildDur,
	}
	snap.refs.Store(1)

	s.epoch.Store(epoch)
	old := s.cur.Swap(snap)
	s.cache.swapEpoch(epoch)
	if old != nil {
		old.retire()
	}
	s.mutates.Add(1)
	s.mutatedOps.Add(int64(len(ops)))

	resp := &MutateResponse{
		Epoch:          epoch,
		N:              g.N(),
		M:              g.M(),
		Applied:        len(ops),
		Incremental:    !full,
		Clusters:       len(dec.Clusters),
		CutFraction:    dec.CutFraction(g),
		BuildMs:        float64(buildDur.Nanoseconds()) / 1e6,
		MutationsTotal: snap.Mutations,
	}
	if stats != nil {
		resp.Reused = stats.Reused
		resp.Broken = stats.Broken
		resp.NewClusters = stats.NewClusters
		resp.ReuseFraction = stats.ReuseFraction()
	}
	s.cfg.Log.Printf("serve: mutated to epoch %d: n=%d m=%d clusters=%d applied=%d reused=%d broken=%d (%v)",
		epoch, g.N(), g.M(), len(dec.Clusters), len(ops), resp.Reused, resp.Broken, buildDur)
	return snap, resp, nil
}

// mutateOpError marks a batch rejected because one op could not be applied;
// the handler maps it to 422 with the failing op's index.
type mutateOpError struct {
	index int
	err   error
}

func (e *mutateOpError) Error() string {
	return fmt.Sprintf("op %d: %v", e.index, e.err)
}

func (e *mutateOpError) Unwrap() error { return e.err }

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req MutateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad mutate request: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "mutate request has no ops")
		return
	}
	ops := make([]graph.Op, len(req.Ops))
	for i, mo := range req.Ops {
		op, err := mo.toGraphOp()
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "op %d: %v", i, err)
			return
		}
		ops[i] = op
	}
	_, resp, err := s.Mutate(ops, req.Full)
	if err != nil {
		var opErr *mutateOpError
		switch {
		case errors.As(err, &opErr):
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		case errors.Is(err, errShutdown):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "mutate failed: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
