package graph

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteEdgeList writes g in a simple text format:
//
//	n m [weighted] [signed]
//	u v [weight] [sign]
//	...
//
// one edge per line in canonical index order. The hot loop appends digits
// into one reused buffer (strconv.AppendInt), so the cost is O(bytes
// written) with no per-line allocations.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := newFlushWriter(w)
	weighted, signed := g.Weighted(), g.Signed()
	buf := make([]byte, 0, 80)
	buf = strconv.AppendInt(buf, int64(g.N()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(g.M()), 10)
	if weighted {
		buf = append(buf, " weighted"...)
	}
	if signed {
		buf = append(buf, " signed"...)
	}
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for idx := range g.edges {
		e := g.edges[idx]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		if weighted {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, g.Weight(idx), 10)
		}
		if signed {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(g.Sign(idx)), 10)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// flushWriter is a minimal buffered writer: like bufio.Writer but sized for
// bulk sequential emission and without the small-write bookkeeping.
type flushWriter struct {
	w   io.Writer
	buf []byte
}

func newFlushWriter(w io.Writer) *flushWriter {
	return &flushWriter{w: w, buf: make([]byte, 0, 1<<20)}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	if len(fw.buf)+len(p) > cap(fw.buf) {
		if err := fw.Flush(); err != nil {
			return 0, err
		}
		if len(p) > cap(fw.buf) {
			return fw.w.Write(p)
		}
	}
	fw.buf = append(fw.buf, p...)
	return len(p), nil
}

func (fw *flushWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	return err
}

// edgeListHeader is the parsed first line of the text format.
type edgeListHeader struct {
	n, m             int
	weighted, signed bool
}

// ReadEdgeList parses the format produced by WriteEdgeList.
//
// The parser streams the input twice — pass one counts degrees, pass two
// places edges straight into the CSR arrays via StreamingBuilder — so
// construction needs no pending edge buffer and no per-line allocations.
// When r is an io.ReadSeeker (any *os.File), the passes re-read the stream
// in place; otherwise the input is buffered in memory once. Input whose
// edges are not in canonical sorted order falls back to the Builder path
// (identical semantics, including later-duplicate-wins for weights/signs).
//
// Lines may be arbitrarily long (there is no fixed line cap), and malformed
// input — non-numeric fields, vertex IDs outside [0, n), values that
// overflow the CSR index range — is reported with its 1-based line number
// instead of producing garbage indices.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	rs, ok := r.(io.ReadSeeker)
	if ok {
		if start, err := rs.Seek(0, io.SeekCurrent); err == nil {
			return readEdgeListTwoPass(rs, start)
		}
		// Seek failed (e.g. a pipe pretending): fall through to buffering.
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return readEdgeListTwoPass(bytes.NewReader(data), 0)
}

// readEdgeListTwoPass drives the two parsing passes over a seekable stream
// starting at offset start.
func readEdgeListTwoPass(rs io.ReadSeeker, start int64) (*Graph, error) {
	// Pass 1: parse the header, validate every edge line, count degrees, and
	// detect whether the edges arrive in strictly increasing canonical order.
	p := newEdgeListParser(rs)
	hdr, err := p.header()
	if err != nil {
		return nil, err
	}
	sb, err := NewStreamingBuilder(hdr.n, hdr.m, hdr.weighted, hdr.signed)
	if err != nil {
		return nil, err
	}
	sorted := true
	lastU, lastV := -1, -1
	for i := 0; i < hdr.m; i++ {
		u, v, _, _, err := p.edge(hdr)
		if err != nil {
			return nil, err
		}
		if err := sb.Count(u, v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", p.line, err)
		}
		if u > v {
			u, v = v, u
		}
		if u < lastU || (u == lastU && v <= lastV) {
			sorted = false
		}
		lastU, lastV = u, v
	}
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return nil, err
	}
	// Pass 2: stream edges into their final CSR slots (sorted input), or
	// replay through a Builder (arbitrary-order input).
	p = newEdgeListParser(rs)
	if _, err := p.header(); err != nil {
		return nil, err
	}
	if !sorted {
		return readEdgeListUnsorted(p, hdr)
	}
	if err := sb.FinishCount(); err != nil {
		return nil, err
	}
	for i := 0; i < hdr.m; i++ {
		u, v, w, s, err := p.edge(hdr)
		if err != nil {
			return nil, err
		}
		if err := sb.Place(u, v, w, s); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", p.line, err)
		}
	}
	g, err := sb.Graph()
	if err != nil {
		return nil, err
	}
	return g, nil
}

// readEdgeListUnsorted is the fallback second pass for input whose edges are
// not canonically sorted: a Builder replay with the historical semantics
// (duplicates allowed, the last occurrence wins for weights and signs).
func readEdgeListUnsorted(p *edgeListParser, hdr edgeListHeader) (*Graph, error) {
	b := NewBuilder(hdr.n)
	for i := 0; i < hdr.m; i++ {
		line := p.line
		u, v, w, s, err := p.edge(hdr)
		if err != nil {
			return nil, err
		}
		switch {
		case hdr.weighted:
			err = b.TryAddWeightedEdge(u, v, w)
		case hdr.signed:
			err = b.TryAddSignedEdge(u, v, s)
		default:
			err = b.TryAddEdge(u, v)
		}
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	return b.Graph(), nil
}

// edgeListParser tokenizes the text edge-list format directly from byte
// chunks: no Scanner, no line-length cap, no per-line allocations. It tracks
// the current 1-based line for error reporting.
type edgeListParser struct {
	r    io.Reader
	buf  []byte
	pos  int
	end  int
	eof  bool
	line int
}

func newEdgeListParser(r io.Reader) *edgeListParser {
	return &edgeListParser{r: r, buf: make([]byte, 1<<20), line: 1}
}

// fill refills the buffer, preserving unconsumed bytes. Returns false at EOF
// with no bytes left.
func (p *edgeListParser) fill() (bool, error) {
	if p.pos < p.end {
		copy(p.buf, p.buf[p.pos:p.end])
	}
	p.end -= p.pos
	p.pos = 0
	for !p.eof && p.end < len(p.buf) {
		n, err := p.r.Read(p.buf[p.end:])
		p.end += n
		if err == io.EOF {
			p.eof = true
			break
		}
		if err != nil {
			return false, err
		}
		if n > 0 {
			break
		}
	}
	return p.end > 0, nil
}

// peek returns the next byte without consuming it, or 0 at EOF.
func (p *edgeListParser) peek() (byte, error) {
	if p.pos == p.end {
		ok, err := p.fill()
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, nil
		}
	}
	return p.buf[p.pos], nil
}

// skipSpaces consumes spaces, tabs, and carriage returns.
func (p *edgeListParser) skipSpaces() error {
	for {
		c, err := p.peek()
		if err != nil {
			return err
		}
		if c != ' ' && c != '\t' && c != '\r' || (p.pos == p.end && p.eof) {
			return nil
		}
		p.pos++
	}
}

// atEOF reports whether the stream is exhausted.
func (p *edgeListParser) atEOF() bool { return p.pos == p.end && p.eof }

// parseInt reads one signed decimal token with explicit overflow checking.
func (p *edgeListParser) parseInt(what string) (int64, error) {
	if err := p.skipSpaces(); err != nil {
		return 0, err
	}
	neg := false
	c, err := p.peek()
	if err != nil {
		return 0, err
	}
	if !p.atEOF() && (c == '-' || c == '+') {
		neg = c == '-'
		p.pos++
	}
	var val int64
	digits := 0
	for {
		c, err := p.peek()
		if err != nil {
			return 0, err
		}
		if p.atEOF() || c < '0' || c > '9' {
			break
		}
		d := int64(c - '0')
		if val > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("graph: line %d: %s overflows int64", p.line, what)
		}
		val = val*10 + d
		digits++
		p.pos++
	}
	if digits == 0 {
		if p.atEOF() {
			return 0, fmt.Errorf("graph: line %d: unexpected end of input parsing %s", p.line, what)
		}
		return 0, fmt.Errorf("graph: line %d: bad %s: expected a number, got %q", p.line, what, rune(c))
	}
	if neg {
		val = -val
	}
	return val, nil
}

// parseWord reads one non-space token.
func (p *edgeListParser) parseWord() (string, error) {
	if err := p.skipSpaces(); err != nil {
		return "", err
	}
	var w []byte
	for {
		c, err := p.peek()
		if err != nil {
			return "", err
		}
		if p.atEOF() || c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			return string(w), nil
		}
		w = append(w, c)
		p.pos++
	}
}

// endLine consumes trailing whitespace and the line terminator. A non-space
// byte before the newline is a field-count error.
func (p *edgeListParser) endLine() error {
	if err := p.skipSpaces(); err != nil {
		return err
	}
	c, err := p.peek()
	if err != nil {
		return err
	}
	if p.atEOF() {
		return nil
	}
	if c != '\n' {
		return fmt.Errorf("graph: line %d: trailing garbage %q (too many fields)", p.line, rune(c))
	}
	p.pos++
	p.line++
	return nil
}

// header parses the "n m [weighted] [signed]" first line.
func (p *edgeListParser) header() (edgeListHeader, error) {
	var hdr edgeListHeader
	if _, err := p.peek(); err != nil {
		return hdr, err
	}
	if p.atEOF() {
		return hdr, fmt.Errorf("graph: empty edge-list input")
	}
	n, err := p.parseInt("vertex count")
	if err != nil {
		return hdr, err
	}
	m, err := p.parseInt("edge count")
	if err != nil {
		return hdr, err
	}
	if n < 0 || n > math.MaxInt32 {
		return hdr, fmt.Errorf("graph: line %d: vertex count %d outside the CSR int32 index range", p.line, n)
	}
	if m < 0 || m > math.MaxInt32/2 {
		return hdr, fmt.Errorf("graph: line %d: edge count %d outside the CSR int32 index range", p.line, m)
	}
	hdr.n, hdr.m = int(n), int(m)
	for {
		if err := p.skipSpaces(); err != nil {
			return hdr, err
		}
		c, err := p.peek()
		if err != nil {
			return hdr, err
		}
		if p.atEOF() {
			break
		}
		if c == '\n' {
			p.pos++
			p.line++
			break
		}
		tok, err := p.parseWord()
		if err != nil {
			return hdr, err
		}
		switch tok {
		case "weighted":
			hdr.weighted = true
		case "signed":
			hdr.signed = true
		default:
			return hdr, fmt.Errorf("graph: line %d: unknown header flag %q", p.line, tok)
		}
	}
	if hdr.weighted && hdr.signed {
		return hdr, fmt.Errorf("graph: line %d: weighted+signed graphs not supported in edge-list I/O", p.line)
	}
	return hdr, nil
}

// edge parses one edge line according to the header's shape and validates
// every field, reporting errors with the line number.
func (p *edgeListParser) edge(hdr edgeListHeader) (u, v int, w int64, s int8, err error) {
	line := p.line
	if p.atEOF() {
		return 0, 0, 0, 0, fmt.Errorf("graph: line %d: expected %d edges, input ended early", line, hdr.m)
	}
	ui, err := p.parseInt("endpoint")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	vi, err := p.parseInt("endpoint")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if ui < 0 || ui >= int64(hdr.n) || vi < 0 || vi >= int64(hdr.n) {
		return 0, 0, 0, 0, fmt.Errorf("graph: line %d: edge {%d,%d} out of range for n=%d: %w", line, ui, vi, hdr.n, ErrVertexRange)
	}
	if ui == vi {
		return 0, 0, 0, 0, fmt.Errorf("graph: line %d: self-loop on vertex %d: %w", line, ui, ErrSelfLoop)
	}
	w, s = 1, 1
	if hdr.weighted {
		w, err = p.parseInt("weight")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if w <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("graph: line %d: non-positive weight %d", line, w)
		}
	}
	if hdr.signed {
		sv, err := p.parseInt("sign")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if sv != 1 && sv != -1 {
			return 0, 0, 0, 0, fmt.Errorf("graph: line %d: bad sign %d", line, sv)
		}
		s = int8(sv)
	}
	if err := p.endLine(); err != nil {
		return 0, 0, 0, 0, err
	}
	return int(ui), int(vi), w, s, nil
}
