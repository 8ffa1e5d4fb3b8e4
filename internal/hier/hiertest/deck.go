// Package hiertest generates the decks the hierarchical compiler is
// measured and tested on.
package hiertest

import (
	"fmt"
	"strings"
)

// PipelineDeck generates the n-stage hierarchical RTD pipeline used
// by the hierarchical-compile acceptance test (internal/hier) and the
// nanobench hier_compile case: every stage is one `X` instance of a
// single .subckt master, so a deck of n stages carries n congruent
// torn blocks that the hierarchical compiler should compile once and
// clone n times.
//
// Each stage is a rows x cols mesh of RTD cells off a local supply
// rail, strongly coupled inside the stage, stages coupled through a
// weak 250k resistor — so each instance partitions into one torn block
// whose factorization has real 2-D fill. The rail reaches the global
// vdd through one series resistor per stage: vdd is pinned stiff by
// VDD, so that single edge is the stage's only supply tear (feeding
// every cell from vdd directly would instead tear once per cell —
// rows*cols*n stiff tears of pure bookkeeping), and the local rail row
// couples to all cells, which is what gives the in-block factorization
// its fill.
func PipelineDeck(n, rows, cols int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hier pipeline %d\n", n)
	b.WriteString("VDD vdd 0 0.55\n")
	b.WriteString("VIN drv 0 PULSE(0.1 0.9 0.5n 0.5n 0.5n 3n 8n)\n")
	prev := "drv"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("s%d", i)
		fmt.Fprintf(&b, "X%d vdd %s %s stage\n", i, prev, out)
		prev = out
	}
	fmt.Fprintf(&b, "RL %s 0 1meg\n", prev)
	b.WriteString(".subckt stage vdd in out\n")
	b.WriteString("RS vdd rail 50\n")
	b.WriteString("RC in n0x0 250k\n")
	node := func(r, c int) string {
		if r == rows-1 && c == cols-1 {
			return "out"
		}
		return fmt.Sprintf("n%dx%d", r, c)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nd := node(r, c)
			fmt.Fprintf(&b, "R%dx%d rail %s %d\n", r, c, nd, 300+10*((r+c)%4))
			fmt.Fprintf(&b, "N%dx%d %s 0 rtd\n", r, c, nd)
			fmt.Fprintf(&b, "C%dx%d %s 0 10f\n", r, c, nd)
			if c > 0 {
				fmt.Fprintf(&b, "RH%dx%d %s %s 300\n", r, c, node(r, c-1), nd)
			}
			if r > 0 {
				fmt.Fprintf(&b, "RV%dx%d %s %s 300\n", r, c, node(r-1, c), nd)
			}
		}
	}
	b.WriteString(".ends\n.model rtd RTD\n.end\n")
	return b.String()
}
