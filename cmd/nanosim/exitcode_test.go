package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// failMCDeck draws a 200% resistor tolerance: with this seed a good
// fraction of the 16 trials go non-physical (R <= 0) and must fail the
// batch exit status, not just print a FAILED line.
const failMCDeck = `* CLI exit-status deck
V1 in 0 0.8
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
.model rtdmod RTD
.tran 0.5n 5n
.mc 16 SEED=3
.vary R1 DEV=200%
.print v(d)
.end
`

// failStepDeck sweeps the resistor through zero so interior grid points
// fail.
const failStepDeck = `* CLI exit-status step deck
V1 in 0 0.8
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
.model rtdmod RTD
.tran 0.5n 5n
.step R1 -200 400 4
.print v(d)
.end
`

// buildCLI compiles the nanosim binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nanosim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCLI executes the binary and returns its exit code and output.
func runCLI(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running %s: %v\n%s", bin, err, out)
	return -1, ""
}

func TestExitStatusSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the CLI; skipped in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.sp", testDeck)
	failMC := write("failmc.sp", failMCDeck)
	failStep := write("failstep.sp", failStepDeck)
	bad := write("bad.sp", "* broken\nR1 in\n.end\n")

	cases := []struct {
		name string
		args []string
		want func(code int) bool
		grep string
	}{
		{"good deck exits 0", []string{"-plot=false", good}, func(c int) bool { return c == 0 }, ""},
		{"failed trials exit non-zero", []string{"-plot=false", failMC}, func(c int) bool { return c != 0 }, "trials failed"},
		{"failed step points exit non-zero", []string{"-plot=false", failStep}, func(c int) bool { return c != 0 }, "points failed"},
		{"parse error exits non-zero", []string{"-plot=false", bad}, func(c int) bool { return c != 0 }, ""},
		{"usage error exits 2", nil, func(c int) bool { return c == 2 }, ""},
	}
	for _, c := range cases {
		code, out := runCLI(t, bin, c.args...)
		if !c.want(code) {
			t.Errorf("%s: exit code %d\n%s", c.name, code, out)
		}
		if c.grep != "" && !strings.Contains(out, c.grep) {
			t.Errorf("%s: output does not mention %q\n%s", c.name, c.grep, out)
		}
	}
}

func TestRunReportsFailedTrials(t *testing.T) {
	// The in-process check of the same bug: run() must surface failed
	// trials/points as errors so main exits non-zero.
	path := writeDeck(t, failMCDeck)
	err := run(io.Discard, path, testCfg(config{plot: false}))
	if err == nil || !strings.Contains(err.Error(), "trials failed") {
		t.Errorf("mc run with failing trials returned %v", err)
	}
	path = writeDeck(t, failStepDeck)
	err = run(io.Discard, path, testCfg(config{plot: false}))
	if err == nil || !strings.Contains(err.Error(), "points failed") {
		t.Errorf("step run with failing points returned %v", err)
	}
}
