package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nanosim/internal/hier/hiertest"
	"nanosim/internal/netparse"
)

// TestTranProbes: without -csv a .tran records the .print names that
// name one of its signals, matched exactly; when none does, it records
// every signal, for the plot-everything fallback.
func TestTranProbes(t *testing.T) {
	deck, err := netparse.Parse(testDeck)
	if err != nil {
		t.Fatal(err)
	}
	prints := []string{"vdb(d)", "i(V1)", "v(d)", "i(N1)", "v(D)", "v(0)", "v(nosuch)"}
	for _, c := range []struct {
		prints   []string
		currents bool
		want     []string
	}{
		{prints, true, []string{"i(V1)", "v(d)"}},
		{prints, false, []string{"v(d)"}},
		{[]string{"vdb(d)", "v(nosuch)"}, true, nil},
		{nil, true, nil},
	} {
		if got := tranProbes(deck.Circuit, c.currents, c.prints); !slices.Equal(got, c.want) {
			t.Errorf("tranProbes(%v, currents=%v) = %v, want %v", c.prints, c.currents, got, c.want)
		}
	}
	// -csv writes every signal whatever .print names.
	path := writeDeck(t, strings.Replace(testDeck, ".end", ".print v(d)\n.end", 1))
	csv := filepath.Join(filepath.Dir(path), "out.csv")
	if err := run(io.Discard, path, testCfg(config{csvPath: csv})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(string(data), "\n"); header != "t,v(in),v(d),i(V1)" {
		t.Errorf("-csv header %q, want every signal t,v(in),v(d),i(V1)", header)
	}
}

// BenchmarkCLIPipeline runs the CLI on the shape of perfbench's
// subckt-pipeline workload: 256 stages of one 4x4 RTD-mesh .subckt,
// '.options partition', a 10 ns .tran and a three-node .print, plotted
// and without -csv, so the run records only the printed signals.
func BenchmarkCLIPipeline(b *testing.B) {
	deck := strings.TrimSuffix(hiertest.PipelineDeck(256, 4, 4), ".end\n") +
		".options partition\n.tran 0.1n 10n\n.print v(s0) v(s128) v(s255)\n.end\n"
	path := filepath.Join(b.TempDir(), "pipeline.sp")
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		b.Fatal(err)
	}
	cfg := testCfg(config{plot: true, width: 78, height: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(io.Discard, path, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
