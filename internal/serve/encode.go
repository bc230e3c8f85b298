package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// This file is the hot-path response encoder. A canonical Result is
// dominated by per-vertex int arrays (mate/set/labels/delivered_to) and
// per-cluster stats, so the flight leader encodes it exactly once with
// encoding/json (full and projection-trimmed forms), the cache stores those
// bytes, and every response is the per-request envelope appended around
// the cached bytes in a pooled buffer: no per-vertex work and no
// allocations on a cache hit.
//
// The envelope encoder is pinned byte-identical to encoding/json by tests
// (TestEncodeMatchesStdlibEnvelope, TestWireBytesMatchStdlib): same field
// order, same omitempty behaviour, same float and string formatting. Any
// schema change to QueryResponse or VertexAnswer must be mirrored here and
// will be caught by those tests.

// encResult pairs a canonical *Result with its one-time JSON encodings:
// full (every field) and trimmed (per-vertex arrays and per_cluster
// dropped — what a projection response embeds). This is the unit the
// result cache stores and coalesced flights share.
type encResult struct {
	res     *Result
	full    []byte
	trimmed []byte
}

// newEncResult encodes r once, in full and as the trimmed shallow copy a
// projection embeds. The flight leader calls it inside its run slot, so
// encoding CPU is admission-controlled along with the run itself.
// json.Marshal fails on a Result only for a NaN or infinite cut_fraction,
// which ldd never produces; the panic would reach the leader's recover and
// answer 500. The trimmed copy has the same scalars, so it cannot fail
// where the full encoding did not.
func newEncResult(r *Result) *encResult {
	full, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("encoding result: %v", err))
	}
	t := *r
	t.Mate, t.Set, t.Labels, t.DeliveredTo, t.PerCluster = nil, nil, nil, nil, nil
	trimmed, _ := json.Marshal(&t)
	return &encResult{res: r, full: full, trimmed: trimmed}
}

// memBytes estimates the resident footprint of the entry for the cache's
// bytes accounting: both encodings plus the backing arrays of the Result.
func (e *encResult) memBytes() int64 {
	r := e.res
	n := int64(len(e.full) + len(e.trimmed))
	n += int64(len(r.Mate)+len(r.Set)+len(r.Labels)+len(r.DeliveredTo)) * 8
	n += int64(len(r.PerCluster)) * 32
	n += int64(len(r.Accounting.Phases)) * 56
	return n + 256 // struct headers, map entry, list element
}

// respBuf is a pooled response-assembly buffer.
type respBuf struct{ b []byte }

var respPool = sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 4096)} }}

func getRespBuf() *respBuf { return respPool.Get().(*respBuf) }

func putRespBuf(rb *respBuf) {
	if cap(rb.b) > 4<<20 {
		return // don't let one huge response pin a huge buffer forever
	}
	respPool.Put(rb)
}

// plainJSONString reports whether s encodes as `"` + s + `"` under
// encoding/json (printable ASCII, nothing escaped, no HTML escaping).
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONString appends the encoding/json encoding of s. The fast path
// covers every string this server actually emits (the family names);
// anything exotic round-trips through json.Marshal for exact parity.
func appendJSONString(b []byte, s string) []byte {
	if plainJSONString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	enc, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return append(b, `""`...)
	}
	return append(b, enc...)
}

// appendJSONFloat appends f exactly as encoding/json does: shortest
// round-trip form, 'f' format inside [1e-6, 1e21), 'e' outside with the
// exponent's leading zero stripped.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		// encoding/json errors out here; our values are wall-clock derived
		// and finite, but never emit invalid JSON.
		return append(b, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendIntField appends `,"name":v`.
func appendIntField(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// appendQueryResponse appends the full response body: the per-request
// envelope around the pre-encoded result bytes. This is the entire
// cache-hit encoding path — one buffer append per field plus one copy of
// the cached result bytes — and is gated allocation-free by
// TestResponseEncodingAllocs.
func appendQueryResponse(b []byte, family string, epoch int64, cached bool, batchSize int64, tookMs float64, selection []VertexAnswer, result []byte) []byte {
	b = append(b, `{"family":`...)
	b = appendJSONString(b, family)
	b = appendIntField(b, "epoch", epoch)
	b = append(b, `,"cached":`...)
	if cached {
		b = append(b, `true`...)
	} else {
		b = append(b, `false`...)
	}
	b = appendIntField(b, "batch_size", batchSize)
	b = append(b, `,"took_ms":`...)
	b = appendJSONFloat(b, tookMs)
	if len(selection) > 0 {
		b = append(b, `,"selection":[`...)
		for i := range selection {
			va := &selection[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"v":`...)
			b = strconv.AppendInt(b, int64(va.V), 10)
			b = appendIntField(b, "value", va.Value)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"result":`...)
	b = append(b, result...)
	return append(b, '}')
}
