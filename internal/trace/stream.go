package trace

import (
	"encoding/json"
	"fmt"
	"io"

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
// JSON Chunks and returns the number of chunks written. On an encode
// error (encoding/json refuses non-finite samples) w holds every
// complete line before the failing chunk and nothing of it.
func WriteNDJSON(w io.Writer, set *wave.Set, chunkSamples int) (int, error) {
	enc := json.NewEncoder(w)
	rd := NewReader(set, chunkSamples)
	n := 0
	for {
		c, ok := rd.Next()
		if !ok {
			return n, nil
		}
		// Encode appends the newline NDJSON needs.
		if err := enc.Encode(c); err != nil {
			return n, fmt.Errorf("trace: NDJSON chunk %d: %w", n, err)
		}
		n++
	}
}
