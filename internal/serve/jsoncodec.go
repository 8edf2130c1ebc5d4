package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"moe"
)

// The JSON codec (DESIGN.md §13). A POST /v1/decide body is read whole
// into one pooled buffer and decoded a request at a time. The canonical
// request is decoded in one pass, straight into moe.Observations:
//
//   - one object with the keys tenant, observations and request_id, in any
//     order, each at most once;
//   - observations that are objects with the keys time, features (at most
//     features.Dim numbers), rate, region_start and available_procs, each
//     at most once;
//   - JSON whitespace anywhere, strings of printable ASCII without
//     escapes, and numbers in the JSON grammar that strconv parses without
//     error (available_procs: as an int).
//
// Anything else — an escape, a mixed-case or unknown key, null, a
// duplicate key, an 11th feature, 1e400, a truncated body — goes to
// encoding/json on the same bytes from the same offset, followed by toObs,
// so every accept or reject decision and every error text is encoding/
// json's. FuzzDecideJSON holds the two paths to that, and
// serve_json_decode_total{path} shows how much traffic takes each.

// jsonRequest is one decide request as the JSON codec hands it to the
// pipeline.
type jsonRequest struct {
	tenant string
	reqID  string
	obs    []moe.Observation
	err    error // toObs's refusal, answered when the request is served
}

// fromDecoded fills r from a request encoding/json decoded.
func (r *jsonRequest) fromDecoded(d *decideRequest) {
	r.tenant, r.reqID = d.Tenant, d.RequestID
	r.obs = make([]moe.Observation, len(d.Observations))
	for i := range d.Observations {
		o, err := d.Observations[i].toObs()
		if err != nil {
			r.obs, r.err = nil, err
			return
		}
		r.obs[i] = o
	}
}

// decodeJSON decodes the request at the start of b into req — leading
// whitespace allowed, whatever follows the value left alone — and returns
// the bytes it took and whether the fast path decoded it. readErr is the
// error that ended reading b short of EOF, if any; the fallback meets it
// after b's last byte, where encoding/json reading the body would have.
// The error is encoding/json's, io.EOF when b holds only whitespace.
func decodeJSON(b []byte, readErr error, req *jsonRequest) (n int, fast bool, err error) {
	c := jcur{b: b}
	c.ws()
	if c.i == len(b) && readErr == nil {
		return c.i, false, io.EOF
	}
	if c.request(req) {
		return c.i, true, nil
	}
	*req = jsonRequest{}
	var src io.Reader = bytes.NewReader(b)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	var d decideRequest
	if err := dec.Decode(&d); err != nil {
		return 0, false, err
	}
	req.fromDecoded(&d)
	return int(dec.InputOffset()), false, nil
}

// decodeRequest is decodeJSON, counted by path.
func (s *Server) decodeRequest(b []byte, readErr error, req *jsonRequest) (int, error) {
	n, fast, err := decodeJSON(b, readErr, req)
	switch {
	case fast:
		s.metrics.jsonFast.Inc()
	case err != io.EOF:
		s.metrics.jsonFallback.Inc()
	}
	return n, err
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// jcur is the fast path's cursor. Every method skips leading whitespace
// and reports false on anything outside the canonical subset, leaving the
// request to the fallback.
type jcur struct {
	b []byte
	i int
}

func (c *jcur) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// tok consumes the byte t if it comes next.
func (c *jcur) tok(t byte) bool {
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == t {
		c.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, aliasing the buffer.
func (c *jcur) str() ([]byte, bool) {
	if !c.tok('"') {
		return nil, false
	}
	for j := c.i; j < len(c.b); j++ {
		switch ch := c.b[j]; {
		case ch == '"':
			s := c.b[c.i:j]
			c.i = j + 1
			return s, true
		case ch < 0x20 || ch > 0x7e || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// num consumes a number in the JSON grammar and returns its text.
func (c *jcur) num() ([]byte, bool) {
	c.ws()
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s := b[c.i:i]
	c.i = i
	return s, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float and integer parse a number the way encoding/json stores it into a
// float64 or an int field; a value it would refuse falls back.
func (c *jcur) float() (float64, bool) {
	s, ok := c.num()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	return f, err == nil
}

func (c *jcur) integer() (int, bool) {
	s, ok := c.num()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	return int(n), err == nil
}

func (c *jcur) boolean() (bool, bool) {
	c.ws()
	switch rest := c.b[c.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		c.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		c.i += 5
		return false, true
	}
	return false, false
}

// object consumes an object, handing each key to field, which consumes
// the value and returns the key's bit; a key seen twice, or one field
// does not take (ok false), falls back.
func (c *jcur) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !c.tok('{') {
		return false
	}
	if c.tok('}') {
		return true
	}
	var seen uint
	for {
		key, ok := c.str()
		if !ok || !c.tok(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if c.tok('}') {
			return true
		}
		if !c.tok(',') {
			return false
		}
	}
}

func (c *jcur) request(req *jsonRequest) bool {
	return c.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "tenant":
			s, ok := c.str()
			req.tenant = string(s)
			return 1, ok
		case "request_id":
			s, ok := c.str()
			req.reqID = string(s)
			return 2, ok
		case "observations":
			return 4, c.observations(req)
		}
		return 0, false
	})
}

func (c *jcur) observations(req *jsonRequest) bool {
	if !c.tok('[') {
		return false
	}
	if c.tok(']') {
		return true
	}
	for {
		req.obs = append(req.obs, moe.Observation{})
		if !c.observation(&req.obs[len(req.obs)-1]) {
			return false
		}
		if c.tok(']') {
			return true
		}
		if !c.tok(',') {
			return false
		}
	}
}

func (c *jcur) observation(o *moe.Observation) bool {
	return c.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "time":
			o.Time, ok = c.float()
			return 1, ok
		case "features":
			return 2, c.features(&o.Features)
		case "rate":
			o.Rate, ok = c.float()
			return 4, ok
		case "region_start":
			o.RegionStart, ok = c.boolean()
			return 8, ok
		case "available_procs":
			o.AvailableProcs, ok = c.integer()
			return 16, ok
		}
		return 0, false
	})
}

// features consumes up to len(f) numbers; a longer array falls back, and
// toObs words the refusal.
func (c *jcur) features(f *moe.Features) bool {
	if !c.tok('[') {
		return false
	}
	if c.tok(']') {
		return true
	}
	for j := range f {
		v, ok := c.float()
		if !ok {
			return false
		}
		f[j] = v
		if c.tok(']') {
			return true
		}
		if !c.tok(',') {
			return false
		}
	}
	return false
}

// appendDecideResponse appends r's JSON line byte for byte as json.Encoder
// writes a decideResponse. The tenant goes out unescaped: only IDs that
// passed tenantIDRe reach a response, and those need no escaping.
func appendDecideResponse(b []byte, r *decideResponse) []byte {
	b = append(b, `{"tenant":"`...)
	b = append(b, r.Tenant...)
	b = append(b, `","threads":`...)
	if r.Threads == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range r.Threads {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"decisions":`...)
	b = strconv.AppendInt(b, r.Decisions, 10)
	if r.Deduped {
		b = append(b, `,"deduped":true`...)
	}
	return append(b, "}\n"...)
}

// bodyPool recycles request body buffers; one grown past maxPooledBody is
// left to the collector.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readBody reads at most limit bytes of r into a pooled buffer, which the
// caller hands back with releaseBody. The error is the one that ended the
// read short of EOF or the limit.
func readBody(r io.Reader, limit int64) (*bytes.Buffer, error) {
	bb := bodyPool.Get().(*bytes.Buffer)
	bb.Reset()
	_, err := bb.ReadFrom(io.LimitReader(r, limit))
	return bb, err
}

func releaseBody(bb *bytes.Buffer) {
	if bb.Cap() <= maxPooledBody {
		bodyPool.Put(bb)
	}
}
