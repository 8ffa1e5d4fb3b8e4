package vary

import (
	"runtime"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/wave"
)

// TestMCParallelDeterministic is the Monte-Carlo leg of the multi-core
// determinism battery: on three configurations covering op trials on
// the sparse backend, op trials on the dense backend and the transient
// job, the batch must be bit-identical at every Workers count and
// across repeat runs. Trial counts are not multiples of the worker
// counts, so workers finish unevenly.
func TestMCParallelDeterministic(t *testing.T) {
	configs := []struct {
		name string
		ckt  func() *circuit.Circuit
		opt  Options
	}{
		// 12-node ladder engages the sparse backend: every trial
		// refactors its worker's solver warmed on the nominal deck.
		{"op-batched", func() *circuit.Circuit { return rtdLadder(t, 12) },
			Options{Trials: 10, Seed: 7,
				Specs: []Spec{{Elem: "N*", Param: "A", Sigma: 0.05, Rel: true}},
				Job:   Job{Analysis: "op"}}},
		// The small divider compiles to the dense backend, which
		// carries no pivot order between trials.
		{"op-dense-fallback", func() *circuit.Circuit { return rtdDivider(t) },
			Options{Trials: 9, Seed: 3,
				Specs: []Spec{{Elem: "R1", Sigma: 0.05, Rel: true}},
				Job:   Job{Analysis: "op"}}},
		{"tran", func() *circuit.Circuit { return rtdLadder(t, 8) },
			Options{Trials: 6, Seed: 11,
				Specs: []Spec{{Elem: "N*", Param: "A", Sigma: 0.05, Rel: true}},
				Job:   Job{Analysis: "tran", Tran: core.Options{TStop: 1e-9, HInit: 5e-11}}}},
	}
	counts := []int{1, 2, 8, runtime.NumCPU()}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var ref *Result
			for _, w := range counts {
				opt := cfg.opt
				opt.Workers = w
				for rep := 0; rep < 2; rep++ {
					res, err := MonteCarlo(cfg.ckt(), opt)
					if err != nil {
						t.Fatalf("workers=%d rep=%d: %v", w, rep, err)
					}
					if res.Failed != 0 {
						t.Fatalf("workers=%d rep=%d: %d trials failed: %v",
							w, rep, res.Failed, res.TrialErrors)
					}
					if ref == nil {
						ref = res
						continue
					}
					compareMC(t, w, ref, res)
				}
			}
		})
	}
}

// compareMC asserts bitwise equality of everything the runner defines
// to be worker-independent: per-trial scalars, envelope series and the
// yield counters. Result.Solve sums per-worker warm-ups and is
// deliberately excluded.
func compareMC(t *testing.T, workers int, a, b *Result) {
	t.Helper()
	if len(a.Signals) != len(b.Signals) {
		t.Fatalf("workers=%d: signal count differs (%d vs %d)", workers, len(a.Signals), len(b.Signals))
	}
	for k, sa := range a.Signals {
		sb := b.Signals[k]
		if sa.Name != sb.Name {
			t.Fatalf("workers=%d: signal %d name %q vs %q", workers, k, sa.Name, sb.Name)
		}
		for i := range sa.Final {
			if sa.Final[i] != sb.Final[i] || sa.Min[i] != sb.Min[i] || sa.Max[i] != sb.Max[i] {
				t.Fatalf("workers=%d: %s trial %d scalars differ: (%g,%g,%g) vs (%g,%g,%g)",
					workers, sa.Name, i,
					sa.Final[i], sa.Min[i], sa.Max[i],
					sb.Final[i], sb.Min[i], sb.Max[i])
			}
		}
		compareSeriesBitwise(t, workers, sa.Name+"-mean", sa.Mean, sb.Mean)
		compareSeriesBitwise(t, workers, sa.Name+"-std", sa.Std, sb.Std)
		compareSeriesBitwise(t, workers, sa.Name+"-qlo", sa.QLo, sb.QLo)
		compareSeriesBitwise(t, workers, sa.Name+"-qhi", sa.QHi, sb.QHi)
	}
	if a.Passed != b.Passed || a.Failed != b.Failed {
		t.Fatalf("workers=%d: yield counters differ: %d/%d vs %d/%d",
			workers, a.Passed, a.Failed, b.Passed, b.Failed)
	}
}

// compareSeriesBitwise checks an envelope series sample by sample; op
// jobs aggregate scalars only, so both sides must then agree on nil.
func compareSeriesBitwise(t *testing.T, workers int, label string, x, y *wave.Series) {
	t.Helper()
	if (x == nil) != (y == nil) {
		t.Fatalf("workers=%d: %s nil mismatch", workers, label)
	}
	if x == nil {
		return
	}
	if x.Len() != y.Len() {
		t.Fatalf("workers=%d: %s length differs (%d vs %d)", workers, label, x.Len(), y.Len())
	}
	for i := 0; i < x.Len(); i++ {
		if x.T[i] != y.T[i] || x.V[i] != y.V[i] {
			t.Fatalf("workers=%d: %s sample %d differs: (%g,%g) vs (%g,%g)",
				workers, label, i, x.T[i], x.V[i], y.T[i], y.V[i])
		}
	}
}
