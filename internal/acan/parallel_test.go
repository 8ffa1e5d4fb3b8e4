package acan

import (
	"runtime"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
)

// rtdAmp is a biased RTD divider with an AC excitation — a nonlinear
// linearization point, no noise sources, so every point is one
// refactor and one solve.
func rtdAmp() *circuit.Circuit {
	ckt := circuit.New("rtd amp")
	vs, _ := ckt.AddVSource("V1", "in", "0", device.DC(0.5))
	vs.ACMag = 1
	ckt.AddResistor("R1", "in", "out", 2e3)
	ckt.AddDevice("N1", "out", "0", device.NewRTD())
	ckt.AddCapacitor("C1", "out", "0", 1e-12)
	return ckt
}

// noisyAmp adds two NOISE= current sources so the sweep exercises the
// multi-RHS noise-column path.
func noisyAmp() *circuit.Circuit {
	ckt := noisyDivider()
	is, _ := ckt.AddISource("IN2", "0", "mid", device.DC(0))
	is.NoiseSigma = 2e-9
	return ckt
}

// noisyDivider is a resistive divider with one noise source and an AC
// excitation.
func noisyDivider() *circuit.Circuit {
	ckt := circuit.New("noisy divider")
	vs, _ := ckt.AddVSource("V1", "in", "0", device.DC(1))
	vs.ACMag = 1
	ckt.AddResistor("R1", "in", "mid", 1e3)
	ckt.AddResistor("R2", "mid", "0", 1e3)
	ckt.AddCapacitor("C1", "mid", "0", 1e-9)
	is, _ := ckt.AddISource("IN1", "0", "mid", device.DC(0))
	is.NoiseSigma = 1e-9
	return ckt
}

// TestACParallelDeterministic is the AC leg of the multi-core
// determinism battery: on three decks covering a noise-free nonlinear
// linearization, the noise-column multi-RHS path and a plain linear
// deck, the sweep must be bit-identical at every worker count and
// across repeat runs. The config names are stable test IDs: "rtd-lanes"
// is the noise-free RTD deck.
func TestACParallelDeterministic(t *testing.T) {
	decks := []struct {
		name string
		ckt  func() *circuit.Circuit
		opt  Options
	}{
		{"rtd-lanes", rtdAmp, Options{Grid: GridDec, Points: 7, FStart: 1e3, FStop: 1e8}},
		{"noisy-multirhs", noisyAmp, Options{Grid: GridDec, Points: 5, FStart: 1e2, FStop: 1e7}},
		{"rc-linear", func() *circuit.Circuit { return rcLowpass(1e3, 1e-9) },
			Options{Grid: GridLin, Points: 60, FStart: 1e3, FStop: 1e7}},
	}
	counts := []int{1, 2, 8, runtime.NumCPU()}
	for _, d := range decks {
		t.Run(d.name, func(t *testing.T) {
			var ref *Result
			for _, w := range counts {
				opt := d.opt
				opt.Workers = w
				opt.FC = new(flop.Counter)
				for rep := 0; rep < 2; rep++ {
					res, err := AC(d.ckt(), opt)
					if err != nil {
						t.Fatalf("workers=%d rep=%d: %v", w, rep, err)
					}
					if ref == nil {
						ref = res
						continue
					}
					compareAC(t, w, ref, res)
				}
			}
		})
	}
}

// compareAC asserts bitwise equality of everything the sweep defines to
// be worker-independent: grid, operating point, every output series,
// and the per-point work counters. Stats.Solve and Flops include the
// per-worker warm-up and are deliberately excluded.
func compareAC(t *testing.T, workers int, a, b *Result) {
	t.Helper()
	if len(a.Freqs) != len(b.Freqs) {
		t.Fatalf("workers=%d: grid size differs (%d vs %d)", workers, len(a.Freqs), len(b.Freqs))
	}
	for i := range a.Freqs {
		if a.Freqs[i] != b.Freqs[i] {
			t.Fatalf("workers=%d: grid point %d differs", workers, i)
		}
	}
	for i := range a.OP {
		if a.OP[i] != b.OP[i] {
			t.Fatalf("workers=%d: operating point row %d differs", workers, i)
		}
	}
	an, bn := a.Waves.Names(), b.Waves.Names()
	if len(an) != len(bn) {
		t.Fatalf("workers=%d: signal count differs (%d vs %d)", workers, len(an), len(bn))
	}
	for _, name := range an {
		wa, wb := a.Waves.Get(name), b.Waves.Get(name)
		if wb == nil {
			t.Fatalf("workers=%d: signal %q missing", workers, name)
		}
		if wa.Len() != wb.Len() {
			t.Fatalf("workers=%d: %q length differs", workers, name)
		}
		for i := 0; i < wa.Len(); i++ {
			if wa.T[i] != wb.T[i] || wa.V[i] != wb.V[i] {
				t.Fatalf("workers=%d: signal %q sample %d differs: (%g,%g) vs (%g,%g)",
					workers, name, i, wa.T[i], wa.V[i], wb.T[i], wb.V[i])
			}
		}
	}
	if a.Stats.Points != b.Stats.Points || a.Stats.Solves != b.Stats.Solves ||
		a.Stats.DeviceEvals != b.Stats.DeviceEvals {
		t.Fatalf("workers=%d: work counters differ: %+v vs %+v", workers, a.Stats, b.Stats)
	}
}
