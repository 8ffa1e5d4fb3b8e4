package trace

import (
	"math/rand"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/stamp"
)

func sys(t *testing.T) *stamp.System {
	t.Helper()
	c := circuit.New("t")
	c.AddVSource("V1", "in", "0", device.DC(1))
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddCapacitor("C1", "out", "0", 1e-12)
	s, err := stamp.NewSystem(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecorderNamesAndSamples(t *testing.T) {
	s := sys(t)
	r := NewRecorder(s, false, nil)
	x := []float64{1.0, 0.5, -1e-3} // v(in), v(out), i(V1)
	r.Sample(0, x)
	x2 := []float64{1.0, 0.7, -0.5e-3}
	r.Sample(1e-9, x2)
	set := r.Set()
	vin := set.Get("v(in)")
	vout := set.Get("v(out)")
	if vin == nil || vout == nil {
		t.Fatalf("missing node series: %v", set.Names())
	}
	if set.Get("i(V1)") != nil {
		t.Error("branch current recorded without RecordCurrents")
	}
	if vin.Len() != 2 || vout.V[1] != 0.7 {
		t.Errorf("samples wrong: %v", vout.V)
	}
}

func TestRecorderCurrents(t *testing.T) {
	s := sys(t)
	r := NewRecorder(s, true, nil)
	r.Sample(0, []float64{1, 0.5, -1e-3})
	iv := r.Set().Get("i(V1)")
	if iv == nil {
		t.Fatal("missing branch current series")
	}
	if iv.V[0] != -1e-3 {
		t.Errorf("i(V1) = %g", iv.V[0])
	}
}

func TestRecorderMonotonicPanic(t *testing.T) {
	s := sys(t)
	r := NewRecorder(s, false, nil)
	r.Sample(1e-9, []float64{0, 0, 0})
	defer func() {
		if recover() == nil {
			t.Error("non-increasing sample time did not panic")
		}
	}()
	r.Sample(0.5e-9, []float64{0, 0, 0})
}

// TestRecorderCompression covers run-length mode: flat runs collapse to
// their endpoints, the sample before each change is retained so linear
// interpolation reproduces the plateau exactly, and Flush emits held
// trailing samples.
func TestRecorderCompression(t *testing.T) {
	s := sys(t)
	r := NewRecorder(s, true, nil)
	r.SetCompress(true)
	// v(out) sits flat at 0.5 for four steps, jumps to 0.9, flattens.
	times := []float64{0, 1, 2, 3, 4, 5, 6}
	vout := []float64{0.5, 0.5, 0.5, 0.5, 0.9, 0.9, 0.9}
	for i, tt := range times {
		r.Sample(tt, []float64{1.0, vout[i], -1e-3})
	}
	r.Flush()
	out := r.Set().Get("v(out)")
	// Retained: (0,0.5) (3,0.5) run-end, (4,0.9) change, (6,0.9) flush.
	if out.Len() != 4 {
		t.Fatalf("compressed to %d samples %v / %v, want 4", out.Len(), out.T, out.V)
	}
	// The plateau interpolates exactly despite the dropped samples.
	for _, tt := range []float64{0.5, 1.5, 2.9} {
		if v := out.At(tt); v != 0.5 {
			t.Fatalf("plateau At(%g) = %g, want 0.5", tt, v)
		}
	}
	if v := out.At(5); v != 0.9 {
		t.Fatalf("post-jump At(5) = %g, want 0.9", v)
	}
	// The jump is confined to (3, 4), not smeared back to t=0.
	if v := out.At(3.5); v <= 0.5 || v >= 0.9 {
		t.Fatalf("jump At(3.5) = %g, want inside (0.5, 0.9)", v)
	}
	// Branch currents compress through the same path.
	iv := r.Set().Get("i(V1)")
	if iv.Len() != 2 {
		t.Fatalf("constant branch current kept %d samples, want 2", iv.Len())
	}
	if iv.T[1] != 6 {
		t.Fatalf("flush kept t=%g as the final sample, want 6", iv.T[1])
	}
}

// TestSampleRowsMatchesFullSampling is the exactness property of
// row-subset recording: over random freeze schedules — rows frozen for
// random stretches, some of them through the last sample, and awake
// rows that sometimes keep their value — SampleRows over the awake rows
// yields exactly the raw series a full Sample every step yields, node
// voltages and branch currents alike. The inductor's branch row is not
// recorded and must be ignored when listed.
func TestSampleRowsMatchesFullSampling(t *testing.T) {
	c := circuit.New("rows")
	c.AddVSource("V1", "a", "0", device.DC(1))
	c.AddVSource("V2", "d", "0", device.DC(1))
	c.AddResistor("R1", "a", "b", 1e3)
	c.AddInductor("L1", "b", "c", 1e-9)
	c.AddResistor("R2", "c", "d", 1e3)
	c.AddResistor("R3", "d", "e", 1e3)
	c.AddCapacitor("C1", "e", "0", 1e-12)
	s, err := stamp.NewSystem(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	frozenAtFlush := 0
	for trial := 0; trial < 300; trial++ {
		full, sub := NewRecorder(s, true, nil), NewRecorder(s, true, nil)
		full.SetCompress(true)
		sub.SetCompress(true)
		x := make([]float64, s.Dim())
		for r := range x {
			x[r] = float64(rng.Intn(3))
		}
		tt := 0.0
		full.Sample(tt, x)
		sub.Sample(tt, x)
		frozen := make([]bool, len(x))
		var rows []int
		for step := rng.Intn(30); step > 0; step-- {
			tt += 0.5 + rng.Float64()
			rows = rows[:0]
			for r := range x {
				if rng.Intn(4) == 0 {
					frozen[r] = !frozen[r]
				}
				if frozen[r] {
					continue
				}
				rows = append(rows, r)
				if rng.Intn(2) == 0 {
					x[r] = float64(rng.Intn(3))
				}
			}
			full.Sample(tt, x)
			sub.SampleRows(tt, x, rows)
		}
		for _, f := range frozen {
			if f {
				frozenAtFlush++
			}
		}
		full.Flush()
		sub.Flush()
		for _, name := range full.Set().Names() {
			a, b := full.Set().Get(name), sub.Set().Get(name)
			if len(a.T) != len(b.T) {
				t.Fatalf("trial %d %s: %d samples, want %d\nfull T=%v V=%v\nrows T=%v V=%v",
					trial, name, len(b.T), len(a.T), a.T, a.V, b.T, b.V)
			}
			for i := range a.T {
				if a.T[i] != b.T[i] || a.V[i] != b.V[i] {
					t.Fatalf("trial %d %s sample %d: (%g, %g), want (%g, %g)",
						trial, name, i, b.T[i], b.V[i], a.T[i], a.V[i])
				}
			}
		}
	}
	if frozenAtFlush == 0 {
		t.Fatal("no row was still frozen at Flush: the schedule misses that case")
	}
}

// TestRecorderProbes: a probe list keeps only the named signals, in the
// recorder's own order, ignoring names it does not record; the kept
// series sample exactly what the full recorder samples.
func TestRecorderProbes(t *testing.T) {
	s := sys(t)
	probes := []string{"i(V1)", "v(out)", "v(nosuch)", "v(0)", "v(gnd)", "i(R1)", "vdb(out)", "v(out)"}
	x := []float64{1.0, 0.5, -1e-3}
	for _, currents := range []bool{false, true} {
		full, probed := NewRecorder(s, currents, nil), NewRecorder(s, currents, probes)
		for _, r := range []*Recorder{full, probed} {
			r.Sample(0, x)
			r.Sample(1e-9, []float64{1.0, 0.7, -0.5e-3})
		}
		want := []string{"v(out)"}
		if currents {
			want = append(want, "i(V1)")
		}
		got := probed.Set().Names()
		if len(got) != len(want) {
			t.Fatalf("currents=%v: probed names %v, want %v", currents, got, want)
		}
		for k, name := range want {
			if got[k] != name {
				t.Fatalf("currents=%v: probed names %v, want %v", currents, got, want)
			}
			a, b := full.Set().Get(name), probed.Set().Get(name)
			for i := range a.T {
				if a.T[i] != b.T[i] || a.V[i] != b.V[i] {
					t.Errorf("%s sample %d: (%g, %g), full recorder (%g, %g)", name, i, b.T[i], b.V[i], a.T[i], a.V[i])
				}
			}
		}
		for _, name := range probes {
			if rec := full.Set().Get(name) != nil; Records(s.Circuit(), currents, name) != rec {
				t.Errorf("currents=%v: Records(%q) = %v, but the full recorder has it: %v", currents, name, !rec, rec)
			}
		}
	}
	// A list that names nothing recorded records nothing.
	if n := NewRecorder(s, true, []string{"v(nosuch)"}).Set().Len(); n != 0 {
		t.Errorf("recorder for unmatched probes has %d series, want 0", n)
	}
}
