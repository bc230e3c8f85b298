package main

import (
	"encoding/json"
	"strings"
	"testing"

	"expandergap/internal/graph"
)

// body builds a query response around result, as the server would send it.
func body(t *testing.T, family string, cached bool, result map[string]any, selection []vertexAnswer) []byte {
	t.Helper()
	result["family"] = family
	result["epoch"] = 1
	if _, ok := result["n"]; !ok {
		result["n"] = 4
	}
	if _, ok := result["m"]; !ok {
		result["m"] = 4
	}
	env := map[string]any{"family": family, "epoch": 1, "cached": cached, "batch_size": 1, "took_ms": 0.5, "result": result}
	if selection != nil {
		env["selection"] = selection
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckResponse(t *testing.T) {
	g := graph.Cycle(4) // edges 0-1, 1-2, 2-3, 3-0
	cases := []struct {
		name    string
		family  string
		cached  bool
		result  map[string]any
		wantErr string // "" = the response is correct
	}{
		{"matching ok", "matching", false, map[string]any{"mate": []int{1, 0, 3, 2}, "matching_size": 2}, ""},
		{"matching asymmetric", "matching", false, map[string]any{"mate": []int{1, 2, 3, 2}, "matching_size": 2}, "not symmetric"},
		{"matching non-edge", "matching", false, map[string]any{"mate": []int{2, -1, 0, -1}, "matching_size": 1}, "not an edge"},
		{"matching size", "matching", false, map[string]any{"mate": []int{1, 0, -1, -1}, "matching_size": 2}, "matching_size"},
		{"mis ok", "mis", false, map[string]any{"set": []int{0, 2}, "set_size": 2}, ""},
		{"mis adjacent", "mis", false, map[string]any{"set": []int{0, 1}, "set_size": 2}, "adjacent"},
		{"mis size", "mis", false, map[string]any{"set": []int{0, 2}, "set_size": 3}, "set_size"},
		{"clustering ok", "clustering", false, map[string]any{"labels": []int{0, 0, 1, 1}, "cut_edges": 2}, ""},
		{"clustering cut", "clustering", false, map[string]any{"labels": []int{0, 0, 1, 1}, "cut_edges": 1}, "label-crossing"},
		{"walkroute ok", "walkroute", false, map[string]any{"delivered": 3, "undelivered": 1, "delivered_to": []int{0, 0, -1, 0}}, ""},
		{"walkroute sum", "walkroute", false, map[string]any{"delivered": 3, "undelivered": 2, "delivered_to": []int{0, 0, -1, 0}}, "!= n"},
		{"walkroute reached", "walkroute", false, map[string]any{"delivered": 3, "undelivered": 1, "delivered_to": []int{0, 0, -1, -1}}, "reached a leader"},
		{"wrong n", "mis", false, map[string]any{"n": 5, "set": []int{0}, "set_size": 1}, "graph has n=4"},
		{"wrong m", "mis", false, map[string]any{"m": 3, "set": []int{0}, "set_size": 1}, "graph has n=4 m=4"},
		{"cached flag", "mis", true, map[string]any{"set": []int{0, 2}, "set_size": 2}, "cached=true"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := checkResponse(body(t, c.family, c.cached, c.result, nil), want{family: c.family, epoch: 1, g: g})
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("correct response rejected: %v", err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("bad response accepted, want an error mentioning %q", c.wantErr)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestCheckProjection(t *testing.T) {
	g := graph.Cycle(4)
	full := &resultDoc{Family: "mis", Epoch: 1, N: 4, M: 4, Set: []int{0, 2}, SetSize: 2}
	trimmed := map[string]any{"set_size": 2}
	vertices := []int{2, 1, 2}
	good := []vertexAnswer{{V: 1, Value: 0}, {V: 2, Value: 1}}
	for _, c := range []struct {
		name string
		sel  []vertexAnswer
		ok   bool
	}{
		{"equal", good, true},
		{"wrong value", []vertexAnswer{{V: 1, Value: 1}, {V: 2, Value: 1}}, false},
		{"missing vertex", good[:1], false},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, proj, err := checkResponse(body(t, "mis", true, trimmed, c.sel), want{family: "mis", epoch: 1, cached: true, g: g})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkProjection(resp, proj, full, vertices); (err == nil) != c.ok {
				t.Fatalf("checkProjection = %v, want ok=%t", err, c.ok)
			}
		})
	}
	resp, proj, err := checkResponse(body(t, "mis", true, map[string]any{"set_size": 3}, good), want{family: "mis", epoch: 1, cached: true, g: g})
	if err != nil {
		t.Fatal(err)
	}
	if checkProjection(resp, proj, full, vertices) == nil {
		t.Fatal("projection with a different set_size accepted")
	}
}

func TestHotTemplateMatches(t *testing.T) {
	warm := []byte(`{"family":"mis","epoch":1,"cached":false,"batch_size":1,"took_ms":1234.5,"result":{"n":4}}` + "\n")
	suffix, err := hotSuffix(warm)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &hotTemplate{family: "mis", suffix: suffix}
	hit := []byte(`{"family":"mis","epoch":1,"cached":true,"batch_size":1,"took_ms":0.012,"result":{"n":4}}` + "\n")
	if !tmpl.matches(hit) {
		t.Fatal("cache hit with the warm-up's result does not match")
	}
	for _, bad := range []string{
		`{"family":"mis","epoch":1,"cached":false,"batch_size":1,"took_ms":0.012,"result":{"n":4}}` + "\n",
		`{"family":"mis","epoch":1,"cached":true,"batch_size":1,"took_ms":0.012,"result":{"n":5}}` + "\n",
		`{"family":"mis","epoch":2,"cached":true,"batch_size":1,"took_ms":0.012,"result":{"n":4}}` + "\n",
	} {
		if tmpl.matches([]byte(bad)) {
			t.Errorf("matched a wrong response: %s", bad)
		}
	}
}
