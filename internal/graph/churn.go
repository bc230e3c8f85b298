package graph

import "fmt"

// GenerateChurn produces a deterministic stream of count edge mutations for
// base: a ~50/50 mix of inserts (fresh random non-edges, weighted/signed to
// match the base graph's annotations) and deletes (uniform over the edges
// live at that point in the stream). The stream is generated against a
// scratch overlay, so every op is guaranteed to apply cleanly when replayed
// in order on base — the property that lets the benchmark's churn workload
// and tests replay a stream without handling failures. The
// sequence depends only on (base, count, seed), splitmix64-derived like the
// streaming generators.
func GenerateChurn(base G, count int, seed int64) ([]Op, error) {
	ov := NewOverlay(base)
	if ov.N() < 2 {
		return nil, fmt.Errorf("graph: churn needs at least 2 vertices, have %d", ov.N())
	}
	var maxW int64 = 1
	if ov.Weighted() {
		type mw interface{ MaxWeight() int64 }
		if g, ok := base.(mw); ok && g.MaxWeight() > 1 {
			maxW = g.MaxWeight()
		} else {
			maxW = 8
		}
	}
	state := uint64(seed)
	ops := make([]Op, 0, count)
	for len(ops) < count {
		del := splitmix64(&state)&1 == 0
		if del && ov.M() == 0 {
			del = false
		}
		if del {
			e := ov.EdgeAt(int(splitmix64(&state) % uint64(ov.M())))
			op := Op{Kind: OpDeleteEdge, U: e.U, V: e.V}
			if err := ov.Apply(op); err != nil {
				return nil, fmt.Errorf("graph: churn delete {%d,%d}: %w", e.U, e.V, err)
			}
			ops = append(ops, op)
			continue
		}
		// Rejection-sample a fresh non-edge; on a near-complete graph fall
		// back to a delete so generation always terminates.
		placed := false
		for tries := 0; tries < 64; tries++ {
			u := int(splitmix64(&state) % uint64(ov.N()))
			v := int(splitmix64(&state) % uint64(ov.N()))
			if u == v || ov.HasEdge(u, v) {
				continue
			}
			op := Op{Kind: OpAddEdge, U: u, V: v}
			if op.U > op.V {
				op.U, op.V = op.V, op.U
			}
			if ov.Weighted() {
				op.W = 1 + int64(splitmix64(&state)%uint64(maxW))
			}
			if err := ov.Apply(op); err != nil {
				return nil, fmt.Errorf("graph: churn insert {%d,%d}: %w", op.U, op.V, err)
			}
			ops = append(ops, op)
			placed = true
			break
		}
		if !placed {
			if ov.M() == 0 {
				return nil, fmt.Errorf("graph: churn generation stuck: no edges to delete and no free pairs to insert")
			}
			e := ov.EdgeAt(int(splitmix64(&state) % uint64(ov.M())))
			op := Op{Kind: OpDeleteEdge, U: e.U, V: e.V}
			if err := ov.Apply(op); err != nil {
				return nil, fmt.Errorf("graph: churn delete {%d,%d}: %w", e.U, e.V, err)
			}
			ops = append(ops, op)
		}
	}
	return ops, nil
}
