package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testDeck = `* CLI test deck
V1 in 0 PULSE(0.3 1.1 20n 1n 1n 100n)
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
.model rtdmod RTD
.op
.dc V1 0 1.2 41 N1
.tran 0.5n 80n
.em 1n 100 SEED=7
.end
`

// testCfg fills the config defaults the flag package would provide.
func testCfg(cfg config) config {
	if cfg.engine == "" {
		cfg.engine = "swec"
	}
	if cfg.width == 0 {
		cfg.width = 60
	}
	if cfg.height == 0 {
		cfg.height = 10
	}
	return cfg
}

func writeDeck(t *testing.T, content string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "deck.sp")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllAnalyses(t *testing.T) {
	path := writeDeck(t, testDeck)
	csv := filepath.Join(filepath.Dir(path), "out.csv")
	if err := run(io.Discard, path, testCfg(config{csvPath: csv})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,") {
		t.Errorf("CSV header wrong: %q", string(data[:20]))
	}
}

func TestRunEngines(t *testing.T) {
	path := writeDeck(t, testDeck)
	for _, engine := range []string{"swec", "nr", "mla", "pwl"} {
		if err := run(io.Discard, path, testCfg(config{engine: engine})); err != nil {
			t.Errorf("engine %s: %v", engine, err)
		}
	}
	if err := run(io.Discard, path, testCfg(config{engine: "bogus"})); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "/nonexistent/deck.sp", testCfg(config{})); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeDeck(t, "title only, no elements\n.end\n")
	if err := run(io.Discard, bad, testCfg(config{})); err == nil {
		t.Error("empty circuit accepted")
	}
	noAnalysis := writeDeck(t, "t\nV1 a 0 1\nR1 a 0 1k\n.end\n")
	if err := run(io.Discard, noAnalysis, testCfg(config{})); err == nil {
		t.Error("deck without analyses accepted")
	}
}

// TestRunRefusesBeforeResults: a card or batch whose engine cannot
// stamp the deck's tunnel junctions, and a .vary with an unknown DIST=,
// fail the run before any result prints, even when a runnable card or
// batch comes first.
func TestRunRefusesBeforeResults(t *testing.T) {
	const junctions = "* junctions\nVdd vdd 0 0.3\nRL vdd d 1meg\nJ1 d m tj\nJ2 m 0 tj\n.model tj TJ C=1a R=1meg\n.island m\n"
	for _, c := range []struct{ name, deck, want string }{
		{"set tran then op", junctions + ".set tran 0.2n 4n SEED=7\n.op\n.end\n",
			".op cannot run on tunnel junction J1: only .set tran and .set map run"},
		{"set step then op mc", junctions + ".set tran 0.2n 4n SEED=7\n.step RL 1meg 2meg 2\n.mc 4 op\n.vary RL DEV=5%\n.end\n",
			"mc job with .op trials cannot run on tunnel junction J1"},
		{"unknown dist", "* dist\nV1 in 0 1\nR1 in 0 1k\n.op\n.mc 4\n.vary R1 DEV=5% DIST=GAUSSIAN\n.end\n",
			`netlist line 6: .vary unknown distribution "GAUSSIAN"`},
	} {
		var out strings.Builder
		err := run(&out, writeDeck(t, c.deck), testCfg(config{}))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if strings.Contains(out.String(), "==") {
			t.Errorf("%s: results printed before the refusal:\n%s", c.name, out.String())
		}
	}
}

func TestRunWithPlots(t *testing.T) {
	// Plot path writes to stdout; just confirm it does not error.
	path := writeDeck(t, testDeck)
	if err := run(io.Discard, path, testCfg(config{plot: true, height: 8})); err != nil {
		t.Fatal(err)
	}
}

func TestRunRepositoryDecks(t *testing.T) {
	// The shipped demo decks must stay runnable.
	for _, deck := range []string{
		"../../testdata/rtd_divider.sp",
		"../../testdata/fet_rtd_inverter.sp",
		"../../testdata/noisy_rc.sp",
		"../../testdata/ac_rc_filter.sp",
	} {
		if err := run(io.Discard, deck, testCfg(config{height: 8})); err != nil {
			t.Errorf("%s: %v", deck, err)
		}
	}
}

func TestRunRepositoryBatchDecks(t *testing.T) {
	// The .mc and .step demo decks run in batch mode; trials trimmed
	// via the -mc override to keep the test quick.
	if err := run(io.Discard, "../../testdata/mc_rtd_inverter.sp", testCfg(config{mc: 16, height: 8})); err != nil {
		t.Errorf("mc deck: %v", err)
	}
	if err := run(io.Discard, "../../testdata/step_rtd_divider.sp", testCfg(config{height: 8})); err != nil {
		t.Errorf("step deck: %v", err)
	}
}

const mcDeck = `* CLI Monte Carlo deck
V1 in 0 0.8
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
.model rtdmod RTD
.tran 0.5n 10n
.mc 8 SEED=3
.vary N1(A) DEV=5%
.limit v(d) final 0 1
.print v(d)
.end
`

func TestRunMonteCarloCSV(t *testing.T) {
	path := writeDeck(t, mcDeck)
	csv := filepath.Join(filepath.Dir(path), "env.csv")
	if err := run(io.Discard, path, testCfg(config{csvPath: csv})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "v(d)-mean") {
		t.Errorf("envelope CSV missing mean column: %q", string(data[:60]))
	}
}

func TestRunMCWithoutVaryCards(t *testing.T) {
	path := writeDeck(t, testDeck)
	if err := run(io.Discard, path, testCfg(config{mc: 4})); err == nil {
		t.Error("-mc without .vary cards accepted")
	}
}

func TestRunStepFlagWithoutCards(t *testing.T) {
	path := writeDeck(t, testDeck)
	if err := run(io.Discard, path, testCfg(config{step: true})); err == nil {
		t.Error("-step without .step cards accepted")
	}
}
