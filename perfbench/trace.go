package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer, recorded by the benchmark
// around the layer's exported entry point. The program itself carries
// no instrumentation.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`     // the op the call belongs to
	Parent int     `json:"parent"` // index of the enclosing span; -1 for an op's root
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Bytes  int     `json:"bytes,omitempty"` // response bytes a request span read
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use, so several client loops can share one.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, op, parent int) int {
	now := ms(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) { r.endBytes(id, 0) }

// endBytes closes span id, noting the bytes the call read.
func (r *recorder) endBytes(id, n int) {
	now := ms(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Bytes = n
	r.mu.Unlock()
}

// timed records fn as one span and returns fn's error.
func (r *recorder) timed(name string, op, parent int, fn func() error) error {
	id := r.begin(name, op, parent)
	err := fn()
	r.end(id)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes the spans as NDJSON, one span a line.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one span name's fold: the summed duration and self time
// of every span of that name, and each span's duration, in ms.
type layerTime struct {
	total, self float64
	durs        []float64
}

// fold groups spans by name. A span's self time is its duration minus
// the part of its interval that its children cover; overlapping
// children count once.
func fold(spans []span) map[string]*layerTime {
	kids := children(spans)
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.total += d
		lt.self += d - covered(s, spans, kids[i])
		lt.durs = append(lt.durs, d)
	}
	return out
}

// opCoverage returns the duration of each root span named root and the
// share of it that no child span covers.
func opCoverage(spans []span, root string) (opMs, unattributed []float64) {
	kids := children(spans)
	for i, s := range spans {
		if s.Parent != -1 || s.Name != root {
			continue
		}
		d := s.End - s.Start
		opMs = append(opMs, d)
		if d > 0 {
			unattributed = append(unattributed, 1-covered(s, spans, kids[i])/d)
		}
	}
	return opMs, unattributed
}

// children lists each span's direct children by index.
func children(spans []span) [][]int {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, spans []span, kids []int) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
