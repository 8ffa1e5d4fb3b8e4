package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"
)

// Every input is generated here from the workload seed, so the
// benchmark depends on no deck or generator that the program's own
// tests may change. The same seed gives byte-identical inputs.

// newRand returns the generator for one named input stream of a seed.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// near returns base scaled by a uniform factor in [1-f, 1+f].
func near(r *rand.Rand, base, f float64) float64 {
	return base * (1 + f*(2*r.Float64()-1))
}

// Pipeline size: pipeStages instances of one pipeRows x pipeCols
// RTD-mesh master.
const (
	pipeStages = 256
	pipeRows   = 4
	pipeCols   = 4
)

// pipelineDeck is the subckt-pipeline input: a chain of pipeStages
// instances of one .subckt master, each a 4x4 mesh of RTD cells off a
// local rail, stages coupled through a weak resistor so each instance
// partitions into one torn block. A pulse drives the head; the tail
// stays quiescent, so dormancy matters. The seed jitters the master's
// element values, the drive and the probed middle stage.
func pipelineDeck(seed uint64) string {
	r := newRand(seed, "subckt-pipeline")
	var b strings.Builder
	fmt.Fprintf(&b, "* perfbench subckt-pipeline seed %d\n", seed)
	b.WriteString(".options partition\n")
	fmt.Fprintf(&b, "VDD vdd 0 %.4g\n", near(r, 0.55, 0.02))
	fmt.Fprintf(&b, "VIN drv 0 PULSE(0.1 0.9 %.3gn 0.5n 0.5n %.3gn 8n)\n", near(r, 0.5, 0.1), near(r, 3, 0.05))
	prev := "drv"
	for i := 0; i < pipeStages; i++ {
		fmt.Fprintf(&b, "X%d vdd %s s%d stage\n", i, prev, i)
		prev = fmt.Sprintf("s%d", i)
	}
	fmt.Fprintf(&b, "RL %s 0 1meg\n", prev)
	writeMeshMaster(&b, r, "stage", pipeRows, pipeCols)
	b.WriteString(".model rtd RTD\n.tran 0.1n 10n\n")
	fmt.Fprintf(&b, ".print v(s0) v(s%d) v(s%d)\n", pipeStages/4+r.IntN(pipeStages/2), pipeStages-1)
	b.WriteString(".end\n")
	return b.String()
}

// writeMeshMaster writes a .subckt master with ports (vdd in out): a
// rows x cols mesh of RTD cells fed from a local rail through one
// series resistor, the input coupled weakly into the first cell and
// the last cell driving out.
func writeMeshMaster(b *strings.Builder, r *rand.Rand, name string, rows, cols int) {
	fmt.Fprintf(b, ".subckt %s vdd in out\n", name)
	fmt.Fprintf(b, "RS vdd rail %.4g\n", near(r, 50, 0.05))
	fmt.Fprintf(b, "RC in n0x0 %.4gk\n", near(r, 250, 0.05))
	node := func(i, j int) string {
		if i == rows-1 && j == cols-1 {
			return "out"
		}
		return fmt.Sprintf("n%dx%d", i, j)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			nd := node(i, j)
			fmt.Fprintf(b, "R%dx%d rail %s %.4g\n", i, j, nd, near(r, float64(300+10*((i+j)%4)), 0.03))
			fmt.Fprintf(b, "N%dx%d %s 0 rtd\n", i, j, nd)
			fmt.Fprintf(b, "C%dx%d %s 0 %.3gf\n", i, j, nd, near(r, 10, 0.05))
			if j > 0 {
				fmt.Fprintf(b, "RH%dx%d %s %s %.4g\n", i, j, node(i, j-1), nd, near(r, 300, 0.05))
			}
			if i > 0 {
				fmt.Fprintf(b, "RV%dx%d %s %s %.4g\n", i, j, node(i-1, j), nd, near(r, 300, 0.05))
			}
		}
	}
	b.WriteString(".ends\n")
}

// setupDeck is the minimal deck whose run times the CLI's fixed
// start-up cost.
const setupDeck = "* perfbench start-up\nV1 a 0 1\nR1 a 0 1k\n.op\n.end\n"

// inverter is the mc-yield input: a FET-RTD inverter (series RTD pair
// with an NMOS pull-down, input high) under RTD peak-current and FET
// threshold spread. Values are SPICE strings, parsed while the circuit
// is built.
type inverter struct {
	vdd, vin, cl, cin, kp, vto string
	tstop, tstep               string
	loadArea                   float64
	areaDev, vtoDev            float64 // relative sigmas
	trials                     int
	varySeed                   uint64
	// hi bounds the final low-state v(out). It sits near the median of
	// the spread, so the yield is strictly between 0 and 1.
	hi float64
}

func inverterInput(seed uint64) inverter {
	r := newRand(seed, "mc-yield")
	return inverter{
		vdd: "1.2", vin: "1.2", cin: "1f", kp: "5m", vto: "0.5",
		cl:    fmt.Sprintf("%.3gf", near(r, 20, 0.05)),
		tstop: "60n", tstep: "1n",
		loadArea: 1.5,
		areaDev:  near(r, 0.05, 0.1),
		vtoDev:   near(r, 0.03, 0.1),
		trials:   200,
		varySeed: r.Uint64(),
		hi:       0.184,
	}
}

// serveDeck is one distinct deck of the serve-mixed mix.
type serveDeck struct {
	name   string
	kind   string // the analysis the job requests
	src    string
	weight int  // ops per client cycle
	family bool // one of the decks sharing a .subckt master
}

// serveOp is one op of a client's cycle: a deck, and whether it is
// submitted under a new title, which the compile cache has not seen.
type serveOp struct {
	deck int
	miss bool
}

// missesPerCycle is how many ops of each client cycle carry a deck
// text the compile cache has never seen: a tenth of the 40.
const missesPerCycle = 4

// serveInputs returns the serve-mixed decks and each client's cycle.
// One small transient takes over half the ops, so the median op falls
// inside that one deck's latency mode; every other job kind, and a
// family of .subckt decks sharing one master, has a fixed small share.
// The seed jitters element values and engine seeds and shuffles each
// cycle; the counts per kind never change.
func serveInputs(seed uint64) ([]serveDeck, [threads][]serveOp) {
	r := newRand(seed, "serve-mixed")
	divider := func(analysis string) string {
		return fmt.Sprintf("V1 in 0 PULSE(0 1.5 5n 2n 2n 40n)\nR1 in d %.4g\nN1 d 0 rtdmod\nCD d 0 10f\n.model rtdmod RTD\n%s\n.print v(d)\n.end\n",
			near(r, 100, 0.05), analysis)
	}
	decks := []serveDeck{
		{name: "tran-divider", kind: "tran", weight: 22,
			src: "* perfbench rtd divider transient\n" + divider(".tran 0.2n 50n")},
		{name: "dc-divider", kind: "dc", weight: 2,
			src: "* perfbench rtd divider sweep\n" + divider(".dc V1 0 1.5 61 N1")},
		{name: "ac-filter", kind: "ac", weight: 2,
			src: fmt.Sprintf("* perfbench rc lowpass\nVIN in 0 DC 0 AC 1 0\nR1 in out %.4gk\nC1 out 0 1n\nIB 0 out DC 10u NOISE=0.5n\n.ac dec 20 1.59k 15.9meg\n.print vdb(out) vp(out) onoise(out)\n.end\n",
				near(r, 1, 0.05))},
		{name: "em-noisy-rc", kind: "em", weight: 2,
			src: fmt.Sprintf("* perfbench noisy rc\nIN 0 x DC 50u NOISE=0.8n\nR1 x 0 %.4gk\nC1 x 0 1p\n.em 1n 200 SEED=%d\n.end\n",
				near(r, 1, 0.05), 1+r.IntN(1000))},
		{name: "set-junction", kind: "set", weight: 2,
			src: fmt.Sprintf("* perfbench double tunnel junction\nVdd vdd 0 0.3\nRL vdd d %.4gmeg\nJ1 d m tj\nJ2 m 0 tj\n.model tj TJ C=1a R=1meg\n.island m\n.set tran 0.2n 20n SEED=%d TEMP=4.2\n.print i(d) n(m)\n.end\n",
				near(r, 1, 0.05), 1+r.IntN(1000))},
		{name: "mc-inverter", kind: "mc", weight: 2,
			src: fmt.Sprintf("* perfbench inverter yield\nVDD vdd 0 1.2\nVIN in 0 1.2\nNL vdd out rtdload\nND out 0 rtdmod\nM1 out in 0 nmod\nCL out 0 %.3gf\nCIN in 0 1f\n.model rtdmod RTD\n.model rtdload RTD AREA=1.5\n.model nmod NMOS KP=5m VTO=0.5 W=1 L=1\n.tran 1n 60n\n.mc 8 tran SEED=%d\n.vary N*(A) DEV=5%%\n.vary M1(VTO) DEV=3%%\n.limit v(out) final * 0.184\n.print v(out)\n.end\n",
				near(r, 20, 0.05), 1+r.IntN(1000))},
		{name: "step-divider", kind: "step", weight: 2,
			src: fmt.Sprintf("* perfbench rtd divider grid\nV1 in 0 0.8\nR1 in d 600\nN1 d 0 rtdmod\nCD d 0 10f\n.model rtdmod RTD\n.op\n.step R1 %.4g %.4g 6\n.step N1(AREA) 1 2 2\n.print v(d)\n.end\n",
				near(r, 200, 0.05), near(r, 1200, 0.05))},
	}
	// The .subckt family: three decks of different length that share
	// one master, so the service sees the same master in every deck. A
	// 3x3 mesh gives each instance's block enough unknowns for the
	// sparse solver, whose compiled state the service can pre-warm.
	var master strings.Builder
	writeMeshMaster(&master, r, "cell", 3, 3)
	for _, n := range []int{2, 3, 4} {
		var b strings.Builder
		fmt.Fprintf(&b, "* perfbench subckt family %d stages\n.options partition\nVDD vdd 0 0.55\nVIN drv 0 PULSE(0.1 0.9 0.5n 0.5n 0.5n 3n 8n)\n", n)
		prev := "drv"
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "X%d vdd %s s%d cell\n", i, prev, i)
			prev = fmt.Sprintf("s%d", i)
		}
		fmt.Fprintf(&b, "RL %s 0 1meg\n%s.model rtd RTD\n.tran 0.1n 4n\n.print v(s0) v(%s)\n.end\n", prev, master.String(), prev)
		decks = append(decks, serveDeck{name: fmt.Sprintf("subckt-%d", n), kind: "tran", weight: 2, family: true, src: b.String()})
	}

	var cycles [threads][]serveOp
	for c := range cycles {
		var ops []serveOp
		for i, d := range decks {
			for k := 0; k < d.weight; k++ {
				ops = append(ops, serveOp{deck: i})
			}
		}
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		// Half the misses are new decks from the .subckt family, whose
		// master the service has seen before; half are other decks.
		var fam, rest []int
		for i, o := range ops {
			if decks[o.deck].family {
				fam = append(fam, i)
			} else {
				rest = append(rest, i)
			}
		}
		for _, g := range [][]int{fam, rest} {
			for _, k := range r.Perm(len(g))[:missesPerCycle/2] {
				ops[g[k]].miss = true
			}
		}
		cycles[c] = ops
	}
	return decks, cycles
}

// retitle replaces a deck's title line. The title is part of the
// compile-cache key, so the result is a deck the cache has not seen
// that computes exactly what the original does.
func retitle(src, title string) string {
	_, rest, _ := strings.Cut(src, "\n")
	return "* " + title + "\n" + rest
}
