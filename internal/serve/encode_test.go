package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
)

// fullResult builds a Result that sets every field, with negative values
// and a phase name that needs escaping.
func fullResult() *Result {
	return &Result{
		Family:       "matching",
		Epoch:        3,
		N:            24,
		M:            36,
		Clusters:     2,
		Mate:         []int{1, 0, -1, 4, 3, -1},
		MatchingSize: 2,
		Weight:       -17,
		Set:          []int{0, 3, 5},
		SetSize:      3,
		Labels:       []int{0, 0, 1, 1, 2, 2},
		CutEdges:     4,
		CutFraction:  0.0625,
		MaxDiameter:  7,
		Delivered:    5,
		Undelivered:  1,
		DeliveredTo:  []int{3, 3, -1, 0, 0, 0},
		PerCluster: []ClusterStat{
			{ID: 0, Leader: 3, Size: 3, Stat: 1},
			{ID: 1, Leader: 0, Size: 3, Stat: 0},
		},
		Accounting: Accounting{
			Rounds: 120, Messages: 4096, Words: 8192, Bits: 65536,
			Phases: []PhaseAccount{
				{Name: "walkroute", Rounds: 100, Messages: 4000, Words: 8000, Bits: 64000},
				{Name: `weird "<&>" name`, Rounds: 20, Messages: 96, Words: 192, Bits: 1536},
			},
		},
	}
}

// TestEncodeMatchesStdlibEnvelope pins appendQueryResponse byte-identical
// to json.Marshal of the equivalent QueryResponse, for a plain family name
// and one that needs escaping.
func TestEncodeMatchesStdlibEnvelope(t *testing.T) {
	r := fullResult()
	cases := []struct {
		cached    bool
		batch     int64
		tookMs    float64
		selection []VertexAnswer
	}{
		{false, 1, 0, nil},
		{true, 1, 0.123456, nil},
		{false, 7, 15032.25, nil},
		{true, 1, 4.5e-7, []VertexAnswer{{V: 0, Value: 1}, {V: 5, Value: -1}}},
	}
	for _, family := range []string{r.Family, `weird "<&>" family`} {
		for i, c := range cases {
			resp := &QueryResponse{
				Family: family, Epoch: r.Epoch, Cached: c.cached,
				BatchSize: c.batch, TookMs: c.tookMs, Selection: c.selection, Result: r,
			}
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatalf("%s case %d: %v", family, i, err)
			}
			got := appendQueryResponse(nil, family, r.Epoch, c.cached, c.batch, c.tookMs,
				c.selection, newEncResult(r).full)
			if !bytes.Equal(got, want) {
				t.Errorf("%s case %d:\n got %s\nwant %s", family, i, got, want)
			}
		}
	}
}

// TestEncodeJSONFloat sweeps the float encoder against encoding/json over
// representative magnitudes (took_ms and cut_fraction are the only floats
// on the wire).
func TestEncodeJSONFloat(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.5, 1e-6, 9.999999e-7, 1e-7, -3.25e-9,
		1e20, 1e21, 2.5e21, -1e22, 123456.789, 0.1 + 0.2,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONFloat(nil, v)
		if !bytes.Equal(got, want) {
			t.Errorf("float %g: got %s, want %s", v, got, want)
		}
	}
}

// TestWireBytesMatchStdlib drives real queries over HTTP and asserts the
// raw response body is exactly json.Marshal(decoded envelope): the manual
// wire encoding is indistinguishable from the reflection-based one.
func TestWireBytesMatchStdlib(t *testing.T) {
	_, ts := newTestServer(t, writeTestGraph(t, 24))
	bodies := []string{`{}`, `{"seed": 2}`, `{"vertices": [0, 3, 5]}`, `{}`} // last repeats: cache hit
	for _, family := range Families() {
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+"/query/"+family, "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			raw := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", family, body, resp.StatusCode, raw)
			}
			var qr QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatalf("%s %s: decode: %v", family, body, err)
			}
			want, err := json.Marshal(&qr)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(raw, want) {
				t.Fatalf("%s %s: wire bytes differ from stdlib encoding:\n got %s\nwant %s",
					family, body, raw, want)
			}
			if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(raw)) {
				t.Fatalf("%s %s: Content-Length %q, body %d bytes", family, body, cl, len(raw))
			}
		}
	}
}

var encodeSink int

// TestResponseEncodingAllocs gates the cache-hit response path: appending
// the envelope around pre-encoded result bytes in a pooled buffer must not
// allocate at steady state.
func TestResponseEncodingAllocs(t *testing.T) {
	enc := newEncResult(fullResult())
	// Warm the pool and grow the buffer once.
	rb := getRespBuf()
	rb.b = appendQueryResponse(rb.b[:0], "matching", 3, true, 1, 0.123456, nil, enc.full)
	putRespBuf(rb)

	allocs := testing.AllocsPerRun(1000, func() {
		rb := getRespBuf()
		b := appendQueryResponse(rb.b[:0], "matching", 3, true, 1, 0.123456, nil, enc.full)
		b = append(b, '\n')
		encodeSink = len(b)
		rb.b = b
		putRespBuf(rb)
	})
	if allocs > 0 {
		t.Fatalf("cache-hit response encoding allocates %.1f/op, want 0", allocs)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
