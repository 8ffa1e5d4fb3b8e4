package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"nanosim/internal/wave"
)

// Chunk is one NDJSON record of a streamed wave set: a bounded slice of
// one signal's samples. A client reassembles the full series by
// concatenating the chunks of each signal in arrival order (Seq is
// strictly increasing per signal, starting at 0, with Last set on the
// final chunk).
type Chunk struct {
	// Signal names the series ("v(out)", "i(V1)").
	Signal string `json:"signal"`
	// Seq is the chunk index within the signal, starting at 0.
	Seq int `json:"seq"`
	// Last marks the signal's final chunk.
	Last bool `json:"last,omitempty"`
	// T and V are the parallel sample arrays of this chunk.
	T []float64 `json:"t"`
	V []float64 `json:"v"`
}

// DefaultChunkSamples is the Reader's default per-chunk sample bound:
// large enough that chunk framing is negligible against the float
// payload, small enough that a consumer decodes one bounded line at a
// time.
const DefaultChunkSamples = 512

// Reader incrementally walks a wave set, yielding bounded Chunks one at
// a time — the serve layer's NDJSON emitter reads from it instead of
// marshalling the whole result (which for a long partitioned transient
// can be tens of megabytes) into one JSON document.
//
// The reader holds no copies: chunks alias the underlying series
// storage, so the set must not be mutated while a Reader walks it.
type Reader struct {
	set   *wave.Set
	names []string
	limit int

	sig int // current signal index
	off int // sample offset within the current signal
	seq int // chunk sequence within the current signal
}

// NewReader returns a Reader over every series of set in insertion
// order. chunkSamples bounds the samples per chunk; <= 0 selects
// DefaultChunkSamples.
func NewReader(set *wave.Set, chunkSamples int) *Reader {
	if chunkSamples <= 0 {
		chunkSamples = DefaultChunkSamples
	}
	return &Reader{set: set, names: set.Names(), limit: chunkSamples}
}

// Next returns the next chunk, or ok=false when the set is exhausted.
// Empty series yield a single empty Last chunk so consumers still learn
// the signal exists.
func (r *Reader) Next() (Chunk, bool) {
	for r.sig < len(r.names) {
		s := r.set.Get(r.names[r.sig])
		n := s.Len()
		if r.off >= n && !(n == 0 && r.seq == 0) {
			r.sig++
			r.off, r.seq = 0, 0
			continue
		}
		end := r.off + r.limit
		if end > n {
			end = n
		}
		c := Chunk{
			Signal: s.Name,
			Seq:    r.seq,
			Last:   end == n,
			T:      s.T[r.off:end],
			V:      s.V[r.off:end],
		}
		r.off = end
		r.seq++
		if c.Last {
			r.sig++
			r.off, r.seq = 0, 0
		}
		return c, true
	}
	return Chunk{}, false
}

// WriteNDJSON encodes every series of set to w as newline-delimited
// JSON Chunks and returns the number of chunks written. Each line is
// the bytes encoding/json's Encoder writes for the Chunk, but it is
// built by appending, without reflection: the floats use encoding/json's
// float64 format, the name its HTML-safe escaping. A t array that is
// bit-equal to the previous signal's t array of the same Seq (series
// recorded on one time axis) copies that array's bytes instead of
// formatting them again. JSON has no NaN or Inf: on a non-finite sample
// w holds every complete line before the failing chunk and nothing of
// it.
func WriteNDJSON(w io.Writer, set *wave.Set, chunkSamples int) (int, error) {
	e := encoders.Get().(*ndjsonEncoder)
	defer e.release()
	rd := NewReader(set, chunkSamples)
	n := 0
	for {
		c, ok := rd.Next()
		if !ok {
			return n, nil
		}
		line, err := e.line(c)
		if err != nil {
			return n, fmt.Errorf("trace: NDJSON chunk %d: %w", n, err)
		}
		if _, err := w.Write(line); err != nil {
			return n, fmt.Errorf("trace: NDJSON chunk %d: %w", n, err)
		}
		n++
	}
}

// encoders keeps released encoders, and so their buffers, for later
// calls, as encoding/json keeps its encode states.
var encoders = sync.Pool{New: func() any { return new(ndjsonEncoder) }}

// maxEncoderBytes is the buffer capacity past which an encoder is left
// to the GC, so one huge set does not pin its buffers.
const maxEncoderBytes = 1 << 20

// ndjsonEncoder builds one chunk line at a time. It keeps the formatted
// t arrays of the signal being encoded and of the one before it, so a
// chunk on the previous signal's time axis copies its bytes.
type ndjsonEncoder struct {
	buf       []byte // the line being built
	name      []byte // the current signal's name as a JSON string
	prev, cur axisBytes
}

// axisBytes holds one signal's formatted t arrays by Seq.
type axisBytes struct {
	buf  []byte      // the arrays' bytes, back to back
	ends []int       // ends[seq]: where array seq ends in buf
	t    [][]float64 // t[seq]: the samples it was formatted from
}

func (a *axisBytes) reset() {
	a.buf, a.ends = a.buf[:0], a.ends[:0]
	clear(a.t) // drop the references to the caller's series
	a.t = a.t[:0]
}

// array returns the bytes of t array seq when it was formatted from
// samples bit-equal to t, nil otherwise.
func (a *axisBytes) array(seq int, t []float64) []byte {
	if seq >= len(a.t) {
		return nil
	}
	if p := a.t[seq]; len(p) != len(t) || (p == nil) != (t == nil) {
		return nil
	}
	for i, x := range a.t[seq] {
		if math.Float64bits(x) != math.Float64bits(t[i]) {
			return nil
		}
	}
	start := 0
	if seq > 0 {
		start = a.ends[seq-1]
	}
	return a.buf[start:a.ends[seq]]
}

// release drops the axes of this call, which reference the caller's
// series, and keeps e for a later call. The line and name buffers are
// overwritten before each use.
func (e *ndjsonEncoder) release() {
	e.prev.reset()
	e.cur.reset()
	if cap(e.buf)+cap(e.prev.buf)+cap(e.cur.buf) > maxEncoderBytes {
		return
	}
	encoders.Put(e)
}

// line encodes c, with its trailing newline, into e's line buffer. The
// bytes stay valid until the next call.
func (e *ndjsonEncoder) line(c Chunk) ([]byte, error) {
	if c.Seq == 0 {
		// A new signal: the one just encoded becomes the previous.
		e.prev, e.cur = e.cur, e.prev
		e.cur.reset()
		name, err := json.Marshal(c.Signal)
		if err != nil {
			return nil, err
		}
		e.name = append(e.name[:0], name...)
	}
	b := append(e.buf[:0], `{"signal":`...)
	b = append(b, e.name...)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(c.Seq), 10)
	if c.Last {
		b = append(b, `,"last":true`...)
	}
	b = append(b, `,"t":`...)
	start := len(b)
	if t := e.prev.array(c.Seq, c.T); t != nil {
		b = append(b, t...)
	} else {
		var err error
		if b, err = appendFloats(b, c.T); err != nil {
			return nil, fmt.Errorf("%s seq %d t: %w", c.Signal, c.Seq, err)
		}
	}
	e.cur.buf = append(e.cur.buf, b[start:]...)
	e.cur.ends = append(e.cur.ends, len(e.cur.buf))
	e.cur.t = append(e.cur.t, c.T)
	b = append(b, `,"v":`...)
	b, err := appendFloats(b, c.V)
	if err != nil {
		return nil, fmt.Errorf("%s seq %d v: %w", c.Signal, c.Seq, err)
	}
	e.buf = append(b, "}\n"...)
	return e.buf, nil
}

// appendFloats appends xs as a JSON array (null for a nil slice) in
// encoding/json's float64 format: the shortest representation that
// round-trips, in 'f' format, or 'e' below 1e-6 and from 1e21 up, with
// a two-digit negative exponent trimmed to one ("1e-7").
func appendFloats(b []byte, xs []float64) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return b, fmt.Errorf("non-finite sample %s, which JSON cannot encode", strconv.FormatFloat(x, 'g', -1, 64))
		}
		if i > 0 {
			b = append(b, ',')
		}
		format := byte('f')
		if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, x, format, -1, 64)
		if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, ']'), nil
}
