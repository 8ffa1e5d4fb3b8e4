package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// parseTol reads a slowdown tolerance: "10%" or "0.1".
func parseTol(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad tolerance %q (want e.g. 10%% or 0.1)", s)
	}
	if pct {
		v /= 100
	}
	if v <= 0 {
		return 0, fmt.Errorf("tolerance %q must be positive", s)
	}
	return v, nil
}

// maxNormalizeOffset bounds how large a uniform old→new slowdown
// -normalize will attribute to hardware rather than to a regression of
// the shared hot path.
const maxNormalizeOffset = 2.5

// benchCase is one comparable wall-time measurement extracted from a
// BENCH_solver.json report.
type benchCase struct {
	key string
	val float64
}

// benchCases flattens a report into named wall-time cases. Only
// wall-time metrics are compared; counters (allocs, refactors) regress
// through their own asserts.
func benchCases(rep *SolverBenchReport) []benchCase {
	var out []benchCase
	for _, e := range rep.Results {
		out = append(out, benchCase{fmt.Sprintf("solver/%s/n=%d", e.Backend, e.N), e.NsPerStep})
	}
	if rep.Vary != nil {
		out = append(out, benchCase{"vary/ns_per_trial", rep.Vary.NsPerTrial})
	}
	if rep.Partition != nil {
		out = append(out, benchCase{"partition/partitioned_ms", rep.Partition.PartitionedMs})
	}
	if rep.Hier != nil {
		out = append(out, benchCase{"hier/flatten_compile_ms", rep.Hier.FlattenMs})
		out = append(out, benchCase{"hier/hier_compile_ms", rep.Hier.HierMs})
	}
	return out
}

// readBenchReport loads a BENCH_solver.json.
func readBenchReport(path string) (*SolverBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep SolverBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runSolverBenchCompare implements the bench-regression gate:
// `nanobench -solverbench-compare old.json new.json -tol 10%` fails when
// any case recorded in both reports slowed down by more than tol.
func runSolverBenchCompare(oldPath, newPath string, tol float64, normalize bool) error {
	oldRep, err := readBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(newPath)
	if err != nil {
		return err
	}
	return compareBenchCases(oldPath, benchCases(oldRep), benchCases(newRep), tol, normalize)
}

// compareBenchCases is the shared gate engine behind
// -solverbench-compare and -servebench-compare: it fails when any case
// recorded in both reports slowed down by more than tol.
//
// normalize divides every ratio by the median ratio across cases before
// the tolerance applies. Absolute wall-times only compare meaningfully
// on the hardware that recorded the baseline; a CI runner that is
// uniformly 2x slower than the recording machine would otherwise flag
// every case. The median is the hardware offset (a real regression
// moves a few cases, not the median), so normalized mode catches the
// same relative regressions machine-independently.
func compareBenchCases(oldPath string, old, cases []benchCase, tol float64, normalize bool) error {
	oldCases := map[string]float64{}
	for _, c := range old {
		oldCases[c.key] = c.val
	}
	newCases := append([]benchCase(nil), cases...)
	sort.Slice(newCases, func(i, j int) bool { return newCases[i].key < newCases[j].key })

	scale := 1.0
	if normalize {
		var ratios []float64
		for _, c := range newCases {
			if base, ok := oldCases[c.key]; ok && base > 0 && c.val > 0 {
				ratios = append(ratios, c.val/base)
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			scale = ratios[len(ratios)/2]
			fmt.Printf("bench-compare: normalizing by median ratio %.3f (hardware offset)\n", scale)
			// Normalization is blind to a regression that slows every
			// case uniformly (it shifts the median itself). Hardware
			// offsets between runner classes are real but bounded; a
			// median beyond the cap is more likely a shared-hot-path
			// regression than a machine change, so refuse to wave it
			// through and make the operator decide.
			if scale > maxNormalizeOffset {
				return fmt.Errorf("bench-compare: median ratio %.2fx exceeds the %.1fx normalization cap — either the shared hot path regressed everywhere or the baseline was recorded on much faster hardware (re-record it on this runner class if so)", scale, maxNormalizeOffset)
			}
		}
	}

	compared, regressed := 0, 0
	for _, c := range newCases {
		base, ok := oldCases[c.key]
		if !ok || base <= 0 || c.val <= 0 {
			continue
		}
		compared++
		ratio := c.val/(base*scale) - 1
		mark := "ok"
		if ratio > tol {
			mark = "REGRESSED"
			regressed++
		}
		fmt.Printf("bench-compare %-28s %12.0f -> %12.0f  %+6.1f%%  %s\n",
			c.key, base, c.val, 100*ratio, mark)
	}
	if compared == 0 {
		return fmt.Errorf("bench-compare: no common cases with %s", oldPath)
	}
	if regressed > 0 {
		return fmt.Errorf("bench-compare: %d of %d cases slowed down more than %.0f%%", regressed, compared, 100*tol)
	}
	fmt.Printf("bench-compare: %d cases within %.0f%% of %s\n", compared, 100*tol, oldPath)
	return nil
}
