package hiertest

import (
	"fmt"
	"math/rand"
	"strings"
)

// MixedDeck generates a seeded partitioned transient deck that mixes
// every input the torn-block engine's dormancy wake rules distinguish:
//
//   - grounded DC, PULSE, PWL, SIN and EXP voltage sources, each
//     feeding stage rails through one series resistor (a stiff tear, so
//     the stage reads the source waveform as a remote input);
//   - DC and pulsed current sources into stage rails (block-internal
//     current inputs);
//   - stages of two RTD cells (a two-level .subckt nest) chained
//     through weak 250k resistors (torn resistors);
//   - weak RTDs bridging random stage outputs (torn RTDs);
//   - FET inverters whose gate is a stage output (remote gates).
//
// The same seed always yields the same deck. The deck carries its own
// .tran card and prints every stage output.
func MixedDeck(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(7)
	jit := func(v float64) float64 { return v * (0.8 + 0.4*rng.Float64()) }
	ns := func(v float64) string { return fmt.Sprintf("%.4gn", v) }

	var b strings.Builder
	fmt.Fprintf(&b, "* mixed partitioned deck, seed %d\n", seed)
	b.WriteString("VDD vdd 0 0.55\n")
	b.WriteString("VDH vdh 0 1.2\n")
	fmt.Fprintf(&b, "VP vp 0 PULSE(0.1 0.9 %s 0.5n 0.5n %s %s)\n", ns(jit(1)), ns(jit(3)), ns(jit(8)))
	// The PWL creeps 10 mV over its fourth segment, slowly enough for a
	// block it feeds to fall asleep there and wake on the drift.
	var pwl [5]float64
	for k, gap := range []float64{2, 2, 3, 7, 3} {
		if k > 0 {
			pwl[k] = pwl[k-1]
		}
		pwl[k] += jit(gap)
	}
	fmt.Fprintf(&b, "VW vw 0 PWL(0 0.3 %s 0.3 %s 0.8 %s 0.8 %s 0.81 %s 0.4)\n",
		ns(pwl[0]), ns(pwl[1]), ns(pwl[2]), ns(pwl[3]), ns(pwl[4]))
	fmt.Fprintf(&b, "VS vs 0 SIN(0.5 %.3g %.4gmeg %s)\n", jit(0.2), jit(150), ns(jit(3)))
	fmt.Fprintf(&b, "VE ve 0 EXP(0.2 0.8 %s %s %s %s)\n", ns(jit(2)), ns(jit(1)), ns(jit(10)), ns(jit(2)))
	sources := []string{"vdd", "vp", "vw", "vs", "ve"}
	for _, src := range sources[1:] {
		fmt.Fprintf(&b, "RL%s %s 0 100k\n", src, src)
	}

	prev := "drv"
	fmt.Fprintf(&b, "RD vp %s 300\nCD %s 0 10f\n", prev, prev)
	for i := 0; i < n; i++ {
		src := "vdd" // every other stage runs off the DC supply
		if i%2 == 1 {
			src = sources[1+rng.Intn(len(sources)-1)]
		}
		out := fmt.Sprintf("s%d", i)
		fmt.Fprintf(&b, "RS%d %s r%d %.3g\n", i, src, i, jit(50))
		fmt.Fprintf(&b, "X%d r%d %s %s stage\n", i, i, prev, out)
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "I%d 0 r%d DC %.3gu\n", i, i, jit(20))
		case 1:
			fmt.Fprintf(&b, "I%d 0 r%d PULSE(0 %.3gu %s 0.5n 0.5n %s %s)\n",
				i, i, jit(40), ns(jit(5)), ns(jit(2)), ns(jit(7)))
		}
		prev = out
	}
	fmt.Fprintf(&b, "RL %s 0 1meg\n", prev)
	for k := 0; k < 1+n/4; k++ {
		a, c := rng.Intn(n), rng.Intn(n)
		if a == c {
			c = (a + 1) % n
		}
		fmt.Fprintf(&b, "NT%d s%d s%d weak\n", k, a, c)
	}
	for k := 0; k < 1+n/4; k++ {
		fmt.Fprintf(&b, "XI%d vdh s%d o%d inv\n", k, rng.Intn(n), k)
	}
	b.WriteString(".subckt cell rail in out\nRB rail out 320\nRC in out 250k\nNB out 0 rtd\nCB out 0 10f\n.ends\n")
	b.WriteString(".subckt stage rail in out\nXA rail in m cell\nXB rail m out cell\n.ends\n")
	b.WriteString(".subckt inv vdh g out\nRL vdh out 2k\nM1 out g 0 nmod\nCL out 0 20f\n.ends\n")
	b.WriteString(".model rtd RTD\n.model weak RTD AREA=1e-3\n.model nmod NMOS KP=5m VTO=0.5 W=1 L=1\n")
	b.WriteString(".tran 0.1n 20n\n.print")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " v(s%d)", i)
	}
	b.WriteString("\n.end\n")
	return b.String()
}
