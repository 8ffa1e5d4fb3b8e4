package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"testing"

	"nanosim/internal/wave"
)

// benchAxis returns n adaptive-step sample times from t0: steps of a
// fraction of a nanosecond that vary from step to step, as a SWEC
// transient records them.
func benchAxis(rng *rand.Rand, n int, t0 float64) []float64 {
	ts := make([]float64, n)
	t := t0
	for i := range ts {
		ts[i] = t
		t += 0.2e-9 * (0.05 + rng.Float64())
	}
	return ts
}

// benchValues returns n node-voltage-like samples.
func benchValues(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = 1.5 * math.Sin(float64(i)/40) * (0.9 + 0.1*rng.Float64())
	}
	return vs
}

// BenchmarkWriteNDJSON times the stream encoder on two shapes:
//   - shared-axis: three series on one time axis (each with its own
//     copy, as the recorder keeps them), like the RTD divider's
//     transient that dominates serve-mixed;
//   - partitioned: sixteen series, each with its own compressed axis of
//     a different length, as dormant blocks record them; no axis is
//     shared, so the reuse check must cost next to nothing.
//
// It reports ns per sample (t and v counted once) and allocs per op.
func BenchmarkWriteNDJSON(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	shared := wave.NewSet()
	axis := benchAxis(rng, 1500, 0)
	for _, name := range []string{"v(in)", "v(d)", "i(V1)"} {
		if err := shared.Add(&wave.Series{Name: name, T: append([]float64(nil), axis...), V: benchValues(rng, len(axis))}); err != nil {
			b.Fatal(err)
		}
	}
	part := wave.NewSet()
	for k := 0; k < 16; k++ {
		n := 40 + rng.IntN(600)
		if err := part.Add(&wave.Series{Name: fmt.Sprintf("v(x%d.s%d)", k/4, k), T: benchAxis(rng, n, rng.Float64()*1e-9), V: benchValues(rng, n)}); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		set  *wave.Set
	}{{"shared-axis", shared}, {"partitioned", part}} {
		b.Run(bc.name, func(b *testing.B) {
			samples := 0
			for _, n := range bc.set.Names() {
				samples += bc.set.Get(n).Len()
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := WriteNDJSON(io.Discard, bc.set, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
		})
	}
}
