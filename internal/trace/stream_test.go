package trace

import (
	"bufio"
	"encoding/json"
	"math"
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
	// encoding/json refuses NaN: the writer stops at the chunk holding
	// it, and the output keeps exactly the complete lines before it.
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
