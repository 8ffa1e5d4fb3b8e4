package vary

import (
	"fmt"
	"testing"

	"nanosim/internal/core"
	"nanosim/internal/linsolve"
)

// stampPerturbedLadder restamps a tridiagonal ladder system with a
// trial-dependent conductance, standing in for a perturbed circuit's
// per-step assembly: same pattern every trial, different values.
func stampPerturbedLadder(s linsolve.Solver, n int, g float64) {
	s.Reset()
	for i := 0; i < n; i++ {
		s.Add(i, i, 2*g+1e-12)
		if i > 0 {
			s.Add(i, i-1, -g)
			s.Add(i-1, i, -g)
		}
	}
}

// TestTrialStepReuseZeroAlloc enforces the vary hot-path contract: once
// a worker's solver is warmed on the nominal pattern, the per-step
// Reset/restamp/Solve cycle of every later trial allocates nothing,
// even though each trial stamps different (perturbed) values.
func TestTrialStepReuseZeroAlloc(t *testing.T) {
	const n = 64
	s := linsolve.NewSparse(n, nil)
	rhs := make([]float64, n)
	rhs[0] = 1e-3
	out := make([]float64, n)
	// Warm-up: the nominal assembly compiles the pattern and runs the
	// one-time symbolic analysis.
	stampPerturbedLadder(s, n, 1e-3)
	if err := s.Solve(rhs, out); err != nil {
		t.Fatal(err)
	}
	trial := 0
	allocs := testing.AllocsPerRun(100, func() {
		trial++
		stampPerturbedLadder(s, n, 1e-3*(1+1e-3*float64(trial%17)))
		if err := s.Solve(rhs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("per-step allocs after warm-up = %g, want 0", allocs)
	}
}

// BenchmarkTrialStepReuse is the measured form of the same contract;
// expect 0 allocs/op in steady state.
func BenchmarkTrialStepReuse(b *testing.B) {
	const n = 200
	s := linsolve.NewSparse(n, nil)
	rhs := make([]float64, n)
	rhs[0] = 1e-3
	out := make([]float64, n)
	stampPerturbedLadder(s, n, 1e-3)
	if err := s.Solve(rhs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stampPerturbedLadder(s, n, 1e-3*(1+1e-9*float64(i%7)))
		if err := s.Solve(rhs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloTrial measures the full per-trial cost (clone,
// perturb, transient, measure) with worker solver-state reuse engaged.
func BenchmarkMonteCarloTrial(b *testing.B) {
	ckt := rtdLadder(b, 12)
	specs, err := resolveSpecs(ckt, []Spec{{Elem: "N*", Param: "A", Sigma: 0.05, Rel: true}})
	if err != nil {
		b.Fatal(err)
	}
	job := Job{Analysis: "tran", Tran: core.Options{TStop: 2e-9, HInit: 5e-11}}
	cfg := batchConfig{
		base:    ckt,
		job:     job,
		factory: linsolve.Auto,
		signals: []string{"v(na)"},
	}
	w := newWorker(ckt, job, linsolve.Auto, nil)
	w.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runTrial(cfg, w, trialRun{index: i, prepare: mcPrepare(1, i, specs)})
		if out.err != nil {
			b.Fatal(out.err)
		}
		w.postTrial(false)
	}
}

// BenchmarkMonteCarloOP times an op-job MonteCarlo batch on the sparse
// backend: 200 trials of the 24-stage RTD ladder with every RTD's A at
// DEV 5%, at Workers 1 and 2. It reports the batch's numeric refactors
// too. It calls MonteCarlo alone, so the same file runs against older
// trees.
func BenchmarkMonteCarloOP(b *testing.B) {
	ckt := rtdLadder(b, 24)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := Options{Trials: 200, Seed: 1, Workers: workers,
				Specs: []Spec{{Elem: "N*", Param: "A", Sigma: 0.05, Rel: true}},
				Job:   Job{Analysis: "op"}}
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = MonteCarlo(ckt, opt); err != nil {
					b.Fatal(err)
				}
				if res.Failed != 0 {
					b.Fatalf("%d trials failed: %v", res.Failed, res.TrialErrors)
				}
			}
			b.ReportMetric(float64(res.Solve.NumericRefactor), "refactors/batch")
		})
	}
}
