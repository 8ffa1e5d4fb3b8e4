package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"nanosim/internal/wave"
)

// buildSet makes a set with series of the given lengths.
func buildSet(t *testing.T, lens map[string]int) *wave.Set {
	t.Helper()
	set := wave.NewSet()
	// Insertion order must be deterministic for the chunk-order asserts.
	for _, name := range []string{"v(a)", "v(b)", "v(c)"} {
		n, ok := lens[name]
		if !ok {
			continue
		}
		s := wave.NewSeries(name, n)
		for i := 0; i < n; i++ {
			s.MustAppend(float64(i), float64(i)*2)
		}
		if err := set.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

func TestReaderChunksAndReassembles(t *testing.T) {
	set := buildSet(t, map[string]int{"v(a)": 7, "v(b)": 3, "v(c)": 0})
	rd := NewReader(set, 3)
	got := map[string][]float64{}
	lastSeen := map[string]bool{}
	seq := map[string]int{}
	for {
		c, ok := rd.Next()
		if !ok {
			break
		}
		if lastSeen[c.Signal] {
			t.Fatalf("chunk after Last for %s", c.Signal)
		}
		if c.Seq != seq[c.Signal] {
			t.Fatalf("%s: seq %d, want %d", c.Signal, c.Seq, seq[c.Signal])
		}
		seq[c.Signal]++
		if len(c.T) != len(c.V) {
			t.Fatalf("%s: t/v length mismatch", c.Signal)
		}
		if len(c.T) > 3 {
			t.Fatalf("%s: chunk of %d samples exceeds bound 3", c.Signal, len(c.T))
		}
		got[c.Signal] = append(got[c.Signal], c.V...)
		if c.Last {
			lastSeen[c.Signal] = true
		}
	}
	for name, n := range map[string]int{"v(a)": 7, "v(b)": 3, "v(c)": 0} {
		if !lastSeen[name] {
			t.Errorf("%s: no Last chunk", name)
		}
		if len(got[name]) != n {
			t.Errorf("%s: reassembled %d samples, want %d", name, len(got[name]), n)
		}
		for i, v := range got[name] {
			if v != float64(i)*2 {
				t.Errorf("%s[%d] = %g, want %g", name, i, v, float64(i)*2)
			}
		}
	}
}

func TestWriteNDJSON(t *testing.T) {
	set := buildSet(t, map[string]int{"v(a)": 5, "v(b)": 1})
	var out strings.Builder
	n, err := WriteNDJSON(&out, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	// v(a): 5 samples at 2/chunk = 3 chunks; v(b): 1 chunk.
	if n != 4 {
		t.Errorf("wrote %d chunks, want 4", n)
	}
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	lines := 0
	for sc.Scan() {
		var c Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		lines++
	}
	if lines != n {
		t.Errorf("%d NDJSON lines, want %d", lines, n)
	}
}

func TestWriteNDJSONStopsAtNonFinite(t *testing.T) {
	// JSON has no NaN: the writer stops at the chunk holding it, and the
	// output keeps exactly the complete lines before it.
	set := buildSet(t, map[string]int{"v(a)": 5, "v(b)": 1})
	set.Get("v(a)").V[3] = math.NaN()
	var out strings.Builder
	n, err := WriteNDJSON(&out, set, 2)
	if err == nil {
		t.Fatal("NaN sample encoded without error")
	}
	if n != 1 {
		t.Fatalf("wrote %d chunks before the failure, want 1", n)
	}
	const first = `{"signal":"v(a)","seq":0,"t":[0,1],"v":[0,2]}` + "\n"
	if out.String() != first {
		t.Fatalf("output before the failure = %q, want %q", out.String(), first)
	}
}

// referenceNDJSON is the encoder WriteNDJSON replaced: encoding/json's
// Encoder over the Reader's chunks. It writes the complete lines before
// a failing chunk and returns how many it wrote.
func referenceNDJSON(set *wave.Set, chunkSamples int) ([]byte, int, error) {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	rd := NewReader(set, chunkSamples)
	for n := 0; ; n++ {
		c, ok := rd.Next()
		if !ok {
			return out.Bytes(), n, nil
		}
		if err := enc.Encode(c); err != nil {
			return out.Bytes(), n, err
		}
	}
}

// requireReference encodes set with WriteNDJSON and with the reference
// and requires the same bytes, the same chunk count, and an error from
// both or neither.
func requireReference(t *testing.T, label string, set *wave.Set, chunkSamples int) {
	t.Helper()
	want, wantN, wantErr := referenceNDJSON(set, chunkSamples)
	var got bytes.Buffer
	n, err := WriteNDJSON(&got, set, chunkSamples)
	if (err != nil) != (wantErr != nil) || n != wantN {
		t.Fatalf("%s: %d chunks, error %v; reference %d chunks, error %v", label, n, err, wantN, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := got.Bytes(), want
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("%s: output differs at byte %d of %d (reference %d):\n got ...%q\nwant ...%q",
			label, i, len(g), len(w), g[lo:min(len(g), i+60)], w[lo:min(len(w), i+60)])
	}
}

// edgeFloats are the samples where encoding/json's float format turns:
// signed zeros, subnormals, the extremes, and the 'f'/'e' switch points
// with their neighbours.
func edgeFloats() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.5e-308,
		math.MaxFloat64, 1, 0.1, 123456789, 1e20, 9.999999999999999e20, 1.5e-7, 1e-7, 1e-10, 1e-100, 1e100}
	for _, p := range []float64{1e-6, 1e21} {
		xs = append(xs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, -x)
	}
	return xs
}

// escapeNames need JSON escaping: HTML-safe <>&, quotes, backslash,
// control characters, invalid UTF-8 and the JavaScript line separators.
var escapeNames = []string{"v(a)", "v(<b>&c)", `i("q")`, `v(\\)`, "v(\x00\x01\t\n\r\x1f)", "v(\xff\xfe)", "v(\u2028\u2029)", "v(\x7f\u00e9)"}

// randomSample draws a finite float from one of several populations:
// uniform random bits, the edge cases, small integers, and values near
// a random power of ten.
func randomSample(rng *rand.Rand, edges []float64) float64 {
	switch rng.IntN(4) {
	case 0:
		for {
			if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
				return x
			}
		}
	case 1:
		return edges[rng.IntN(len(edges))]
	case 2:
		return float64(rng.IntN(2001) - 1000)
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(60)-30))
}

// randomSet builds a set of up to five series whose time axes are
// independent, shared with the previous series, or shared only for a
// prefix, with nil and empty series among them.
func randomSet(rng *rand.Rand, edges []float64) *wave.Set {
	set := wave.NewSet()
	var prevT []float64
	for k, name := range rng.Perm(len(escapeNames))[:1+rng.IntN(5)] {
		n := rng.IntN(12)
		var ts, vs []float64
		switch rng.IntN(8) {
		case 0: // nil series
		case 1:
			ts, vs = []float64{}, []float64{}
		default:
			ts, vs = make([]float64, n), make([]float64, n)
			for i := range ts {
				ts[i], vs[i] = randomSample(rng, edges), randomSample(rng, edges)
			}
			if k > 0 && rng.IntN(2) == 0 {
				// The previous axis, whole or for a prefix; a copy, as
				// recorders keep one per series.
				m := copy(ts, prevT)
				if rng.IntN(3) == 0 && m > 0 {
					i := rng.IntN(m)
					ts[i] = math.Float64frombits(math.Float64bits(ts[i]) ^ 1<<63) // +0 and -0 differ
				}
			}
		}
		prevT = ts
		if err := set.Add(&wave.Series{Name: escapeNames[name], T: ts, V: vs}); err != nil {
			panic(err)
		}
	}
	return set
}

func TestWriteNDJSONMatchesEncodingJSON(t *testing.T) {
	// Many consecutive calls, so every call runs on a pooled encoder
	// that a previous call left behind.
	rng := rand.New(rand.NewPCG(1, 2))
	edges := edgeFloats()
	for i := 0; i < 3000; i++ {
		set := randomSet(rng, edges)
		if i%10 == 9 {
			// A non-finite sample somewhere: the output must stop where
			// the reference stops.
			names := set.Names()
			s := set.Get(names[rng.IntN(len(names))])
			if s.Len() > 0 {
				bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
				if rng.IntN(2) == 0 {
					s.T[rng.IntN(s.Len())] = bad
				} else {
					s.V[rng.IntN(s.Len())] = bad
				}
			}
		}
		requireReference(t, "random set", set, 1+rng.IntN(5))
	}
	// Every edge float in one axis shared by every name.
	set := wave.NewSet()
	for _, name := range escapeNames {
		edges := edgeFloats()
		if err := set.Add(&wave.Series{Name: name, T: edges, V: edgeFloats()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{1, 3, 0} {
		requireReference(t, "edge floats", set, chunk)
	}
}

// fuzzSet decodes a fuzz input into a set: names split on NUL (at most
// five, duplicates dropped), samples read eight bytes at a time. A
// series takes the previous one's time axis when shared is odd.
func fuzzSet(data []byte, names string, shared uint8) *wave.Set {
	var xs []float64
	for len(data) >= 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	set := wave.NewSet()
	var prevT []float64
	for k, name := range strings.SplitN(names, "\x00", 5) {
		if set.Get(name) != nil {
			continue
		}
		n := len(xs) / 2
		if k > 0 {
			n = min(n, len(xs)/(k+1))
		}
		ts, vs := xs[:n:n], xs[n:2*n:2*n]
		if shared>>k&1 == 1 && prevT != nil {
			ts = append([]float64(nil), prevT...)
			vs = make([]float64, len(ts))
			copy(vs, xs)
		}
		if n == 0 && shared&0x80 != 0 {
			ts, vs = nil, nil
		}
		prevT = ts
		_ = set.Add(&wave.Series{Name: name, T: ts, V: vs})
		xs = xs[n/2:]
	}
	return set
}

func FuzzWriteNDJSON(f *testing.F) {
	le := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(le(edgeFloats()...), strings.Join(escapeNames, "\x00"), uint8(0x0e), uint8(3))
	f.Add(le(0, 1e-9, 2e-9, 3e-9, 1.2, 0.8), "v(a)\x00v(b)\x00i(V1)", uint8(0x06), uint8(2))
	f.Add(le(0, math.Copysign(0, -1), math.NaN(), 1), "v(a)\x00v(b)", uint8(0x02), uint8(1))
	f.Add([]byte{}, "v(a)\x00v(b)", uint8(0x80), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, names string, shared, chunk uint8) {
		set := fuzzSet(data, names, shared)
		// Twice: the second call runs on the encoder the first released.
		requireReference(t, "fuzz", set, int(chunk%8))
		requireReference(t, "fuzz again", set, int(chunk%8))
	})
}

func TestWriteNDJSONReusesSharedAxes(t *testing.T) {
	// Three series on one axis, as a transient recorder writes them: the
	// output is the reference's, call after call, including after a
	// call on a different set left its axes in the pooled encoder.
	shared := buildSet(t, map[string]int{"v(a)": 700, "v(b)": 700, "v(c)": 700})
	other := buildSet(t, map[string]int{"v(a)": 5, "v(b)": 1})
	for i := 0; i < 4; i++ {
		requireReference(t, "shared axis", shared, 0)
		requireReference(t, "other", other, 2)
	}
}
