package main

import (
	"bytes"
	"errors"
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

// runCLI executes the binary and returns its exit code, stdout and
// stderr.
func runCLI(t *testing.T, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("running %s: %v\n%s", bin, err, errOut.String())
	}
	return code, out.String(), errOut.String()
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

	usage := func(c int) bool { return c == 2 }
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
		{"usage error exits 2", nil, usage, ""},
		{"negative -j exits 2", []string{"-plot=false", "-j", "-1", good}, usage, "-j -1 out of range"},
		{"negative -workers exits 2", []string{"-plot=false", "-workers", "-2", good}, usage, "-workers -2 out of range"},
		{"negative -mc exits 2", []string{"-plot=false", "-mc", "-3", good}, usage, "-mc -3 out of range"},
		{"-gcouple outside (0,1) exits 2", []string{"-plot=false", "-partition", "-gcouple", "2", good}, usage, "-gcouple 2 out of range"},
	}
	for _, c := range cases {
		code, stdout, stderr := runCLI(t, bin, c.args...)
		if !c.want(code) {
			t.Errorf("%s: exit code %d\n%s%s", c.name, code, stdout, stderr)
		}
		if c.grep != "" && !strings.Contains(stdout+stderr, c.grep) {
			t.Errorf("%s: output does not mention %q\n%s%s", c.name, c.grep, stdout, stderr)
		}
		if code == 2 && stdout != "" {
			t.Errorf("%s: a usage error printed to stdout:\n%s", c.name, stdout)
		}
	}
}

// TestParseArgsRejectsRanges: out-of-range flag values fail parseArgs,
// so the deck (here a path that does not exist) is never read.
func TestParseArgsRejectsRanges(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-j", "-1"}, "-j -1 out of range"},
		{[]string{"-workers", "-2"}, "-workers -2 out of range"},
		{[]string{"-mc", "-3"}, "-mc -3 out of range"},
		{[]string{"-gcouple", "2"}, "-gcouple 2 out of range"},
		{[]string{"-gcouple", "-0.5"}, "-gcouple -0.5 out of range"},
		{[]string{"-gcouple", "1"}, "-gcouple 1 out of range"},
	} {
		var stderr strings.Builder
		_, _, err := parseArgs(append(c.args, "no-such-deck.sp"), &stderr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseArgs(%v): error %v, want %q", c.args, err, c.want)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("parseArgs(%v): stderr does not say %q:\n%s", c.args, c.want, stderr.String())
		}
	}
	if _, path, err := parseArgs([]string{"-j", "0", "-mc", "0", "-workers", "0", "-gcouple", "0.5", "deck.sp"}, io.Discard); err != nil || path != "deck.sp" {
		t.Errorf("in-range flags: path %q, error %v", path, err)
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
