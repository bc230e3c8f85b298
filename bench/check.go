package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"expandergap/internal/graph"
)

// checkGraph is the part of a graph the checker reads: a fixture *graph.Graph
// or, after /mutate, the benchmark's own replay through a graph.Overlay.
type checkGraph interface {
	graph.G
	HasEdge(u, v int) bool
}

// queryResponse mirrors the JSON envelope of POST /query/<family>.
type queryResponse struct {
	Family    string          `json:"family"`
	Epoch     int64           `json:"epoch"`
	Cached    bool            `json:"cached"`
	BatchSize int64           `json:"batch_size"`
	Selection []vertexAnswer  `json:"selection"`
	Result    json.RawMessage `json:"result"`
}

type vertexAnswer struct {
	V     int   `json:"v"`
	Value int64 `json:"value"`
}

// resultDoc mirrors the canonical result a query returns.
type resultDoc struct {
	Family       string `json:"family"`
	Epoch        int64  `json:"epoch"`
	N            int    `json:"n"`
	M            int    `json:"m"`
	Clusters     int    `json:"clusters"`
	Mate         []int  `json:"mate"`
	MatchingSize int    `json:"matching_size"`
	Set          []int  `json:"set"`
	SetSize      int    `json:"set_size"`
	Labels       []int  `json:"labels"`
	CutEdges     int    `json:"cut_edges"`
	Delivered    int    `json:"delivered"`
	Undelivered  int    `json:"undelivered"`
	DeliveredTo  []int  `json:"delivered_to"`
}

// want is what a workload expects of one query response.
type want struct {
	family string
	epoch  int64
	cached bool
	g      checkGraph
}

// checkResponse decodes one query response body and checks its envelope and,
// when the full result was requested, the result itself. It returns the
// decoded response and result for further checks.
func checkResponse(body []byte, w want) (*queryResponse, *resultDoc, error) {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.Family != w.family || resp.Epoch != w.epoch || resp.Cached != w.cached {
		return nil, nil, fmt.Errorf("envelope family=%s epoch=%d cached=%t, want family=%s epoch=%d cached=%t",
			resp.Family, resp.Epoch, resp.Cached, w.family, w.epoch, w.cached)
	}
	var res resultDoc
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		return nil, nil, fmt.Errorf("decoding result: %w", err)
	}
	if res.Family != w.family || res.Epoch != w.epoch {
		return nil, nil, fmt.Errorf("result family=%s epoch=%d, want %s at epoch %d", res.Family, res.Epoch, w.family, w.epoch)
	}
	if res.N != w.g.N() || res.M != w.g.M() {
		return nil, nil, fmt.Errorf("result n=%d m=%d, graph has n=%d m=%d", res.N, res.M, w.g.N(), w.g.M())
	}
	if resp.Selection == nil {
		if err := checkResult(&res, w.g); err != nil {
			return nil, nil, err
		}
	}
	return &resp, &res, nil
}

// checkResult checks a full canonical result against the graph it answers.
func checkResult(r *resultDoc, g checkGraph) error {
	n := g.N()
	switch r.Family {
	case "matching":
		if len(r.Mate) != n {
			return fmt.Errorf("matching: %d mate entries for %d vertices", len(r.Mate), n)
		}
		pairs := 0
		for v, m := range r.Mate {
			if m < 0 {
				continue
			}
			if m >= n || m == v || r.Mate[m] != v {
				return fmt.Errorf("matching: mate[%d]=%d is not symmetric", v, m)
			}
			if !g.HasEdge(v, m) {
				return fmt.Errorf("matching: matched pair {%d,%d} is not an edge", v, m)
			}
			if v < m {
				pairs++
			}
		}
		if pairs != r.MatchingSize {
			return fmt.Errorf("matching: %d matched pairs, matching_size says %d", pairs, r.MatchingSize)
		}
	case "mis":
		if len(r.Set) != r.SetSize {
			return fmt.Errorf("mis: %d members, set_size says %d", len(r.Set), r.SetSize)
		}
		in := make([]bool, n)
		for _, v := range r.Set {
			if v < 0 || v >= n || in[v] {
				return fmt.Errorf("mis: member %d out of range or repeated", v)
			}
			in[v] = true
		}
		for i := 0; i < g.M(); i++ {
			if e := g.EdgeAt(i); in[e.U] && in[e.V] {
				return fmt.Errorf("mis: members %d and %d are adjacent", e.U, e.V)
			}
		}
	case "clustering":
		if len(r.Labels) != n {
			return fmt.Errorf("clustering: %d labels for %d vertices", len(r.Labels), n)
		}
		cut := 0
		for i := 0; i < g.M(); i++ {
			if e := g.EdgeAt(i); r.Labels[e.U] != r.Labels[e.V] {
				cut++
			}
		}
		if cut != r.CutEdges {
			return fmt.Errorf("clustering: %d label-crossing edges, cut_edges says %d", cut, r.CutEdges)
		}
	case "walkroute":
		if r.Delivered+r.Undelivered != n {
			return fmt.Errorf("walkroute: delivered %d + undelivered %d != n %d", r.Delivered, r.Undelivered, n)
		}
		if len(r.DeliveredTo) != n {
			return fmt.Errorf("walkroute: %d delivered_to entries for %d vertices", len(r.DeliveredTo), n)
		}
		reached := 0
		for _, l := range r.DeliveredTo {
			if l >= 0 {
				reached++
			}
		}
		if reached != r.Delivered {
			return fmt.Errorf("walkroute: %d vertices reached a leader, delivered says %d", reached, r.Delivered)
		}
	default:
		return fmt.Errorf("unknown result family %q", r.Family)
	}
	return nil
}

// project computes the answers a projection onto vertices must return: the
// full result's per-vertex entries, ascending by vertex, duplicates removed.
func project(full *resultDoc, vertices []int) []vertexAnswer {
	sel := append([]int(nil), vertices...)
	sort.Ints(sel)
	var in []bool
	if full.Family == "mis" {
		in = make([]bool, full.N)
		for _, v := range full.Set {
			in[v] = true
		}
	}
	out := make([]vertexAnswer, 0, len(sel))
	for i, v := range sel {
		if i > 0 && v == sel[i-1] {
			continue
		}
		a := vertexAnswer{V: v}
		switch full.Family {
		case "matching":
			a.Value = int64(full.Mate[v])
		case "mis":
			if in[v] {
				a.Value = 1
			}
		case "clustering":
			a.Value = int64(full.Labels[v])
		case "walkroute":
			a.Value = int64(full.DeliveredTo[v])
		}
		out = append(out, a)
	}
	return out
}

// checkProjection checks a projected response against the full result.
func checkProjection(resp *queryResponse, proj *resultDoc, full *resultDoc, vertices []int) error {
	wantSel := project(full, vertices)
	if len(resp.Selection) != len(wantSel) {
		return fmt.Errorf("projection: %d answers, want %d", len(resp.Selection), len(wantSel))
	}
	for i, a := range resp.Selection {
		if a != wantSel[i] {
			return fmt.Errorf("projection: answer %d is %+v, full result says %+v", i, a, wantSel[i])
		}
	}
	if proj.Clusters != full.Clusters || proj.MatchingSize != full.MatchingSize || proj.SetSize != full.SetSize ||
		proj.CutEdges != full.CutEdges || proj.Delivered != full.Delivered || proj.Undelivered != full.Undelivered {
		return fmt.Errorf("projection: result summary differs from the full result")
	}
	return nil
}

// digest is the sha256 of a canonical result's bytes.
func digest(result []byte) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}
