package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nanosim/internal/netparse"
)

// transcript is one pinned CLI invocation: testdata/cli/<name>.txt
// holds its stdout.
type transcript struct {
	name string
	args []string // flags, then the deck path
}

// transcripts lists the pinned invocations: every testdata deck as is,
// with -partition where it has a .tran card, four flag variants and two
// plotted runs. The -j 2 case is perfbench's subckt-pipeline
// invocation: a thread count must not change a transcript. The plots
// pin what a .tran records without -csv: only the .print names
// (part_rtd_pipeline), or every signal when no .print name is one
// (testdata/cli/print_fallback.sp).
// To re-record one after an intended change, run the same command line:
//
//	go run ./cmd/nanosim -plot=false -workers=1 [flags] testdata/<deck>.sp > testdata/cli/<name>.txt
func transcripts(t *testing.T) []transcript {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	deck := func(name string) string { return filepath.Join("..", "..", "testdata", name) }
	var out []transcript
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".sp")
		out = append(out, transcript{name, []string{p}})
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := netparse.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range d.Analyses {
			if a.Kind == "tran" {
				out = append(out, transcript{name + ".partition", []string{"-partition", p}})
				break
			}
		}
	}
	return append(out,
		transcript{"mc_rtd_inverter.mc16", []string{"-mc", "16", deck("mc_rtd_inverter.sp")}},
		transcript{"step_rtd_divider.step", []string{"-step", deck("step_rtd_divider.sp")}},
		transcript{"fet_rtd_inverter.nr", []string{"-engine", "nr", deck("fet_rtd_inverter.sp")}},
		transcript{"nested_rtd_pipeline.j2", []string{"-j", "2", deck("nested_rtd_pipeline.sp")}},
		transcript{"part_rtd_pipeline.plot", []string{"-plot", deck("part_rtd_pipeline.sp")}},
		transcript{"print_fallback.plot", []string{"-plot", deck(filepath.Join("cli", "print_fallback.sp"))}},
	)
}

// TestCLITranscripts compares the CLI's stdout, byte for byte, with the
// committed transcripts. Every case runs with -plot=false and
// -workers=1: a batch's solver-reuse counters grow with its worker
// count, because each worker warms its own solvers.
func TestCLITranscripts(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("transcripts pin adaptive step counts, which fused multiply-add can move; they are recorded on linux/amd64")
	}
	for _, tc := range transcripts(t) {
		args := append([]string{"-plot=false", "-workers=1"}, tc.args...)
		cfg, path, err := parseArgs(args, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got bytes.Buffer
		if err := run(&got, path, cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "cli", tc.name+".txt"))
		if err != nil {
			t.Fatalf("%s: %v (record it as the transcripts doc says)", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Errorf("%s: line %d is %q, transcript has %q", tc.name, i+1, gl[i], wl[i])
					break
				}
			}
			if len(gl) != len(wl) {
				t.Errorf("%s: %d lines, transcript has %d", tc.name, len(gl), len(wl))
			}
		}
	}
}

// batchRuleDeck has .tran, .em, '.mc 4 em' and .step cards.
const batchRuleDeck = `* batch job rule
V1 in 0 0.8
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
.model rtdmod RTD
.tran 0.25n 5n
.em 5n 50 SEED=3
.mc 4 em SEED=9
.vary N1(A) DEV=5%
.step R1 400 800 3
.print v(d)
.end
`

// TestBatchJobRule: the .mc keyword picks the job of the .mc batch
// only; the .step sweep runs the first .tran, as nanosimd does.
func TestBatchJobRule(t *testing.T) {
	path := writeDeck(t, batchRuleDeck)
	for _, c := range []struct {
		cfg  config
		want []string
	}{
		{config{step: true}, []string{"== .step sweep: 3 points (tran job) =="}},
		{config{}, []string{"== .step sweep: 3 points (tran job) ==", "== .mc 4 trials (em job, seed 9) =="}},
	} {
		var out bytes.Buffer
		if err := run(&out, path, testCfg(c.cfg)); err != nil {
			t.Fatal(err)
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("step=%v: output lacks %q:\n%s", c.cfg.step, w, out.String())
			}
		}
		if c.cfg.step && strings.Contains(out.String(), "== .mc") {
			t.Errorf("-step also ran the .mc batch")
		}
	}
}

// emSourceDeck drives an .em deck through a voltage source.
const emSourceDeck = `* noisy divider with a voltage source
V1 in 0 0.5
R1 in x 1k
R2 x 0 2k
C1 x 0 1p
IN 0 x DC 0 NOISE=0.5n
.em 2n 100 SEED=11
.end
`

// TestEMRecordsSourceCurrents: .em records voltage-source branch
// currents, as .tran does, in a single run and in every .mc trial.
func TestEMRecordsSourceCurrents(t *testing.T) {
	path := writeDeck(t, emSourceDeck)
	csv := filepath.Join(filepath.Dir(path), "em.csv")
	if err := run(io.Discard, path, testCfg(config{csvPath: csv})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(string(data), "\n"); header != "t,v(in),v(x),i(V1)" {
		t.Errorf(".em CSV header %q, want t,v(in),v(x),i(V1)", header)
	}
	mc := writeDeck(t, strings.Replace(emSourceDeck, ".end", ".mc 4 em SEED=4\n.vary R1 DEV=5%\n.end", 1))
	var out bytes.Buffer
	if err := run(&out, mc, testCfg(config{})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "i(V1) final:") {
		t.Errorf(".mc em batch does not aggregate i(V1):\n%s", out.String())
	}
}
