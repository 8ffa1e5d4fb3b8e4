package vary

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
)

// TestStepMatchesFreshRuns: a .step over R1 on the step_rtd_divider
// deck reuses one worker's solvers from point to point; every point
// must still equal a fresh run of that point, bit for bit — a solver
// must not carry one point's resistor into the next. The tran job also
// runs its points probed (the batch reads only v(d)), the op job not.
func TestStepMatchesFreshRuns(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "step_rtd_divider.sp"))
	if err != nil {
		t.Fatal(err)
	}
	deck, err := netparse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{{Analysis: "op"}, tranJob()} {
		opt := SweepOptions{
			Axes:    []SweepAxis{{Elem: "R1", From: 200, To: 1200, Points: 6}},
			Job:     job,
			Workers: 1,
			Signals: []string{"v(d)"},
		}
		res, err := Sweep(deck.Circuit, opt)
		if err != nil {
			t.Fatal(err)
		}
		for r, pt := range res.Values {
			clone := deck.Circuit.Clone()
			clone.Element("R1").(*circuit.Resistor).R = pt[0]
			waves, err := runJob(nil, job, clone, nil, baseSeed(job))
			if err != nil {
				t.Fatal(err)
			}
			s := waves.Get("v(d)")
			_, lo, _, hi := s.MinMax()
			if got, want := []float64{res.Final["v(d)"][r], res.Min["v(d)"][r], res.Max["v(d)"][r]}, []float64{s.Final(), lo, hi}; !slices.Equal(got, want) {
				t.Errorf("%s job, R1=%g: final/min/max %v in the sweep, %v fresh", job.Analysis, pt[0], got, want)
			}
		}
	}
}

// TestProbedTrialsMatchFullTrials: tran trials record only the batch's
// signals unless KeepWaves is set, and either way the batch aggregates
// the same bits — monolithic and partitioned trials, Monte Carlo, sweep
// and shard alike. With KeepWaves, each trial's waves hold every
// signal.
func TestProbedTrialsMatchFullTrials(t *testing.T) {
	for _, c := range []struct {
		name   string
		ckt    *circuit.Circuit
		elem   string
		signal string
		popt   *part.Options
	}{
		{"monolithic", rtdDivider(t), "N1", "v(d)", nil},
		{"partitioned", rtdLadder(t, 12), "N*", "v(nf)", &part.Options{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			job := tranJob()
			job.Tran.Partition = c.popt
			opt := Options{
				Trials: 8, Seed: 5, Workers: 1, Job: job,
				Specs:   []Spec{{Elem: c.elem, Param: "A", Sigma: 0.05, Rel: true}},
				Signals: []string{c.signal},
			}
			probed, err := MonteCarlo(c.ckt, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.KeepWaves = true
			full, err := MonteCarlo(c.ckt, opt)
			if err != nil {
				t.Fatal(err)
			}
			compareMC(t, 1, probed, full)
			if probed.Solve != full.Solve || probed.Waves != nil {
				t.Errorf("solve stats %+v vs %+v, probed waves kept: %v", probed.Solve, full.Solve, probed.Waves != nil)
			}
			for k, w := range full.Waves {
				if !slices.Equal(w.Names(), full.Nominal.Names()) {
					t.Fatalf("KeepWaves trial %d recorded %v, want every signal %v", k, w.Names(), full.Nominal.Names())
				}
			}
			shard, err := MonteCarloShard(c.ckt, opt, ShardRange{Start: 0, End: opt.Trials, Total: opt.Trials})
			if err != nil {
				t.Fatal(err)
			}
			if sf, ff := shard.Signals[0].Final, full.Signals[0].Final; !slices.Equal(sf, ff) {
				t.Errorf("shard finals %v, full-recording batch %v", sf, ff)
			}
			sw := SweepOptions{
				Axes:    []SweepAxis{{Elem: "V1", From: 0.6, To: 0.9, Points: 4}},
				Job:     job,
				Workers: 1,
				Signals: opt.Signals,
			}
			sp, err := Sweep(c.ckt, sw)
			if err != nil {
				t.Fatal(err)
			}
			sw.KeepWaves = true
			sf, err := Sweep(c.ckt, sw)
			if err != nil {
				t.Fatal(err)
			}
			name := opt.Signals[0]
			if !slices.Equal(sp.Final[name], sf.Final[name]) || !slices.Equal(sp.Min[name], sf.Min[name]) || !slices.Equal(sp.Max[name], sf.Max[name]) {
				t.Errorf("probed sweep %v, full-recording sweep %v", sp.Final[name], sf.Final[name])
			}
		})
	}
}
