package acan

import (
	"fmt"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
)

// rtdLadderAC builds an n-stage RC+RTD ladder driven by an AC source,
// with noise current sources at `noise` evenly spaced stage nodes.
func rtdLadderAC(n, noise int) *circuit.Circuit {
	ckt := circuit.New("rtd ladder")
	vs, _ := ckt.AddVSource("V1", "in", "0", device.DC(0.8))
	vs.ACMag = 1
	prev := "in"
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("n%d", i)
		ckt.AddResistor("R"+node, prev, node, 300)
		ckt.AddDevice("N"+node, node, "0", device.NewRTD())
		ckt.AddCapacitor("C"+node, node, "0", 10e-15)
		prev = node
	}
	for k := 0; k < noise; k++ {
		is, _ := ckt.AddISource(fmt.Sprintf("IN%d", k), "0", fmt.Sprintf("n%d", (2*k+1)*n/(2*noise)), device.DC(0))
		is.NoiseSigma = 1e-9
	}
	return ckt
}

// BenchmarkACSweep times whole AC sweeps at 20 points per decade from
// 1 kHz to 100 MHz on one worker: the 3-unknown RTD divider (rtdAmp), a
// 200-stage RTD ladder, and that ladder with 8 noise sources (the
// noise-column multi-RHS path). It calls AC alone, so the same file
// runs against older trees.
func BenchmarkACSweep(b *testing.B) {
	decks := []struct {
		name string
		ckt  *circuit.Circuit
	}{
		{"rtd-divider", rtdAmp()},
		{"ladder-200", rtdLadderAC(200, 0)},
		{"ladder-200-noise8", rtdLadderAC(200, 8)},
	}
	opt := Options{Grid: GridDec, Points: 20, FStart: 1e3, FStop: 1e8, Workers: 1}
	for _, d := range decks {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AC(d.ckt, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
