package main

import (
	"math"
	"testing"
)

// A synthetic op: children a and b overlap, c stands apart, a has a
// child of its own, and d runs past the op's end.
//
//	op  [0,10]
//	  a [1,4]   a1 [2,3]
//	  b [3,6]
//	  c [8,9]
//	  d [9.5,12]
func TestFoldSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 4},
		{Name: "b", Parent: 0, Start: 3, End: 6},
		{Name: "c", Parent: 0, Start: 8, End: 9},
		{Name: "a1", Parent: 1, Start: 2, End: 3},
		{Name: "d", Parent: 0, Start: 9.5, End: 12},
		{Name: "other", Parent: -1, Start: 20, End: 21},
	}
	got := fold(spans)
	want := map[string][2]float64{ // total, self
		"op": {10, 10 - 5 - 1 - 0.5}, // children cover [1,6], [8,9] and [9.5,10]
		"a":  {3, 2},
		"b":  {3, 3},
		"c":  {1, 1},
		"a1": {1, 1},
		"d":  {2.5, 2.5},
	}
	for name, w := range want {
		lt := got[name]
		if lt == nil || lt.total != w[0] || math.Abs(lt.self-w[1]) > 1e-12 {
			t.Errorf("%s: got %+v, want total %g self %g", name, lt, w[0], w[1])
		}
	}

	opMs, unattr := opCoverage(spans, "op")
	if len(opMs) != 1 || opMs[0] != 10 || math.Abs(unattr[0]-0.35) > 1e-12 {
		t.Errorf("coverage: op %v unattributed %v, want [10] [0.35]", opMs, unattr)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", 3, -1)
	if err := r.timed("child", 3, root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Op != 3 || s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Errorf("spans %+v do not nest", s)
	}
}

func TestTailLadder(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 300 samples: p95 leaves 15 beyond it, p99 only 3.
	if p, v, beyond := tail(xs); p != 95 || v != 285 || beyond != 15 {
		t.Errorf("tail of 300 = p%g %g (%d beyond), want p95 285 (15 beyond)", p, v, beyond)
	}
	if p, v, _ := tail(xs[:15]); p != 100 || v != 15 {
		t.Errorf("tail of 15 = p%g %g, want the maximum", p, v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
