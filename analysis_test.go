package nanosim_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nanosim"
	"nanosim/internal/core"
	"nanosim/internal/hier"
	"nanosim/internal/netparse"
)

// nestedCellDeck generates a two-level .subckt pipeline: stages
// instances of "stage", each holding two instances of "cell", a rail
// plus a 3x3 RTD mesh. Every cell partitions into one torn block sized
// for the sparse backend, so the hierarchical compiler clones one
// compiled template into the repeated cells.
func nestedCellDeck(stages int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nested cell pipeline %d\n", stages)
	b.WriteString(".options partition\n")
	b.WriteString("VDD vdd 0 0.55\n")
	b.WriteString("VIN drv 0 PULSE(0.1 0.9 0.5n 0.5n 0.5n 3n 8n)\n")
	prev := "drv"
	for i := 0; i < stages; i++ {
		fmt.Fprintf(&b, "X%d vdd %s s%d stage\n", i, prev, i)
		prev = fmt.Sprintf("s%d", i)
	}
	fmt.Fprintf(&b, "RL %s 0 1meg\n", prev)
	b.WriteString(".subckt stage vdd in out\nXA vdd in mid cell\nXB vdd mid out cell\nRM mid 0 2meg\n.ends\n")
	b.WriteString(".subckt cell vdd in out\nRS vdd rail 50\nRC in n0x0 250k\n")
	node := func(r, c int) string {
		if r == 2 && c == 2 {
			return "out"
		}
		return fmt.Sprintf("n%dx%d", r, c)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			nd := node(r, c)
			fmt.Fprintf(&b, "R%dx%d rail %s %d\n", r, c, nd, 300+10*((r+c)%4))
			fmt.Fprintf(&b, "N%dx%d %s 0 rtd\nC%dx%d %s 0 10f\n", r, c, nd, r, c, nd)
			if c > 0 {
				fmt.Fprintf(&b, "RH%dx%d %s %s 300\n", r, c, node(r, c-1), nd)
			}
			if r > 0 {
				fmt.Fprintf(&b, "RV%dx%d %s %s 300\n", r, c, node(r-1, c), nd)
			}
		}
	}
	b.WriteString(".ends\n.model rtd RTD\n.tran 0.1n 10n\n.end\n")
	return b.String()
}

// TestPartitionedTransientDeterministic pins the routing of partitioned
// runs through the hierarchical compiler: on every testdata deck with a
// .tran card, a generated nested-subcircuit deck and a deck that
// partitions into one block, nanosim.Transient must equal core.Transient
// bit for bit — every raw sample, the final state, Stats with flops, and
// the total left on the caller's flop counter.
func TestPartitionedTransientDeterministic(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.sp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	decks := map[string]string{
		"nested-cells": nestedCellDeck(8),
		// Partitions into one block (the capacitor to the source
		// suppresses the stiff tear): the monolithic fallback.
		"single-block": "single block\nV1 in 0 PULSE(0 0.8 1n 1n 1n 20n)\nR1 in d 600\nN1 d 0 rtd\n" +
			"CD d 0 10f\nCB in d 10f\n.model rtd RTD\n.tran 0.1n 50n\n.end\n",
	}
	names := []string{"nested-cells", "single-block"}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		decks[filepath.Base(p)] = string(src)
		names = append(names, filepath.Base(p))
	}
	// The generated deck must exercise template clones, the solver state
	// blocks of one subcircuit master share.
	opt, _ := partitionedTranOptions(t, decks["nested-cells"])
	if _, rep, err := hier.CompileTransient(parseCircuit(t, decks["nested-cells"]), opt); err != nil || rep.Cloned < 8 {
		t.Fatalf("nested-cells: hier compile cloned %v templates (err %v), want >= 8", rep, err)
	}

	ran := 0
	for _, name := range names {
		opt, ok := partitionedTranOptions(t, decks[name])
		if !ok {
			continue
		}
		ran++
		var wantFC, gotFC nanosim.FlopCounter
		opt.FC = &wantFC
		want, err := core.Transient(parseCircuit(t, decks[name]), opt)
		if err != nil {
			t.Fatalf("%s: core: %v", name, err)
		}
		opt.FC = &gotFC
		got, err := nanosim.Transient(parseCircuit(t, decks[name]), opt)
		if err != nil {
			t.Fatalf("%s: nanosim: %v", name, err)
		}
		requireSameTransient(t, name, want, got)
		if name == "single-block" && got.Stats.Blocks != 0 {
			t.Fatalf("%s: %d blocks, want the monolithic fallback", name, got.Stats.Blocks)
		}
		if wantFC.Snapshot() != gotFC.Snapshot() {
			t.Fatalf("%s: flop counters differ: %+v vs %+v", name, wantFC.Snapshot(), gotFC.Snapshot())
		}
	}
	if ran < 2 {
		t.Fatalf("only %d decks had a .tran card", ran)
	}

	// Invalid options fail with the flat engine's error, even where the
	// hierarchical compiler would otherwise trip over the circuit first
	// (an initial condition on an unknown node).
	opt = nanosim.TranOptions{TStop: 0, Partition: &nanosim.PartitionOptions{}, IC: map[string]float64{"nosuch": 1}}
	src := decks["nested-cells"]
	_, wantErr := core.Transient(parseCircuit(t, src), opt)
	_, gotErr := nanosim.Transient(parseCircuit(t, src), opt)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("invalid options: nanosim error %v, core error %v", gotErr, wantErr)
	}
}

// partitionedTranOptions reads a deck's first .tran card into options
// the CLI would use with partitioning on; ok is false without a .tran.
func partitionedTranOptions(t *testing.T, src string) (opt nanosim.TranOptions, ok bool) {
	t.Helper()
	deck, err := netparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range deck.Analyses {
		if a.Kind != "tran" {
			continue
		}
		popt := &nanosim.PartitionOptions{}
		if o := deck.Options; o != nil && o.Partition {
			popt = &nanosim.PartitionOptions{GCouple: o.GCouple, NoDormancy: o.NoDormancy}
		}
		return nanosim.TranOptions{TStop: a.TStop, HInit: a.TStep, RecordCurrents: true, Partition: popt}, true
	}
	return opt, false
}

func parseCircuit(t *testing.T, src string) *nanosim.Circuit {
	t.Helper()
	deck, err := netparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return deck.Circuit
}

// requireSameTransient asserts bitwise equality of two transient
// results: final state, every raw sample of every series in order, and
// Stats.
func requireSameTransient(t *testing.T, label string, a, b *nanosim.TranResult) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, a.Stats, b.Stats)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: state dim %d vs %d", label, len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("%s: state row %d: %g vs %g", label, i, a.X[i], b.X[i])
		}
	}
	an, bn := a.Waves.Names(), b.Waves.Names()
	if strings.Join(an, ",") != strings.Join(bn, ",") {
		t.Fatalf("%s: series differ: %v vs %v", label, an, bn)
	}
	for _, name := range an {
		wa, wb := a.Waves.Get(name), b.Waves.Get(name)
		if len(wa.T) != len(wb.T) {
			t.Fatalf("%s: %s has %d vs %d samples", label, name, len(wa.T), len(wb.T))
		}
		for i := range wa.T {
			if math.Float64bits(wa.T[i]) != math.Float64bits(wb.T[i]) ||
				math.Float64bits(wa.V[i]) != math.Float64bits(wb.V[i]) {
				t.Fatalf("%s: %s sample %d: (%g, %g) vs (%g, %g)", label, name, i, wa.T[i], wa.V[i], wb.T[i], wb.V[i])
			}
		}
	}
}
