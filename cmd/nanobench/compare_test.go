package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseTol(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		err  bool
	}{
		{"10%", 0.10, false},
		{"0.1", 0.1, false},
		{" 25% ", 0.25, false},
		{"0", 0, true},
		{"-5%", 0, true},
		{"abc", 0, true},
	}
	for _, c := range cases {
		got, err := parseTol(c.in)
		if (err != nil) != c.err || (!c.err && got != c.want) {
			t.Errorf("parseTol(%q) = %g, %v; want %g, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestCompareArgs(t *testing.T) {
	o, n, tol, norm, err := compareArgs([]string{"old.json", "new.json", "-tol", "15%", "-normalize"}, "10%", false)
	if err != nil || o != "old.json" || n != "new.json" || tol != "15%" || !norm {
		t.Errorf("positional form: %q %q %q %v %v", o, n, tol, norm, err)
	}
	_, _, tol, norm, err = compareArgs([]string{"a.json", "b.json"}, "10%", false)
	if err != nil || tol != "10%" || norm {
		t.Errorf("defaults: %q %v %v", tol, norm, err)
	}
	if _, _, _, _, err := compareArgs([]string{"only.json"}, "10%", false); err == nil {
		t.Error("single file accepted")
	}
}

// writeBench produces a minimal report with the given per-case timings.
func writeBench(t *testing.T, path string, sparseNs, varyNs, partMs float64) {
	t.Helper()
	rep := SolverBenchReport{
		Schema: "nanosim/bench-solver/v1",
		Results: []SolverBenchEntry{
			{Backend: "sparse", N: 200, NsPerStep: sparseNs},
			{Backend: "dense", N: 16, NsPerStep: 1000},
		},
		Vary:      &VarySmoke{NsPerTrial: varyNs},
		Partition: &PartitionBench{PartitionedMs: partMs},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSolverBenchCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBench(t, oldPath, 10000, 2e6, 100)

	// Within tolerance: 5% slower everywhere passes a 10% gate.
	writeBench(t, newPath, 10500, 2.1e6, 105)
	if err := runSolverBenchCompare(oldPath, newPath, 0.10, false); err != nil {
		t.Errorf("5%% slowdown failed a 10%% gate: %v", err)
	}
	// One case 30% slower: gate must fail and name the regression count.
	writeBench(t, newPath, 13000, 2.1e6, 105)
	err := runSolverBenchCompare(oldPath, newPath, 0.10, false)
	if err == nil || !strings.Contains(err.Error(), "slowed down") {
		t.Errorf("30%% slowdown passed the gate: %v", err)
	}
	// Speedups never fail.
	writeBench(t, newPath, 2000, 1e6, 50)
	if err := runSolverBenchCompare(oldPath, newPath, 0.10, false); err != nil {
		t.Errorf("speedup failed the gate: %v", err)
	}
	// Disjoint reports are an error, not a silent pass.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"nanosim/bench-solver/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSolverBenchCompare(empty, newPath, 0.10, false); err == nil {
		t.Error("comparison with no common cases passed")
	}
}

func TestSolverBenchCompareNormalized(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBench(t, oldPath, 10000, 2e6, 100)

	// A uniform 2x hardware offset fails the raw gate but passes the
	// normalized one.
	writeBench(t, newPath, 20000, 4e6, 200)
	if err := runSolverBenchCompare(oldPath, newPath, 0.10, false); err == nil {
		t.Error("uniform 2x slowdown passed the raw gate")
	}
	if err := runSolverBenchCompare(oldPath, newPath, 0.10, true); err != nil {
		t.Errorf("uniform 2x offset failed the normalized gate: %v", err)
	}
	// A relative regression on top of the offset still fails: one case
	// is 2.8x while the median sits at 2x.
	writeBench(t, newPath, 28000, 4e6, 200)
	if err := runSolverBenchCompare(oldPath, newPath, 0.10, true); err == nil {
		t.Error("relative regression passed the normalized gate")
	}
	// A uniform slowdown beyond the offset cap is refused rather than
	// normalized away — that magnitude is more likely a shared-hot-path
	// regression than a hardware change.
	writeBench(t, newPath, 40000, 8e6, 400)
	err := runSolverBenchCompare(oldPath, newPath, 0.10, true)
	if err == nil || !strings.Contains(err.Error(), "normalization cap") {
		t.Errorf("4x uniform slowdown was normalized away: %v", err)
	}
}
