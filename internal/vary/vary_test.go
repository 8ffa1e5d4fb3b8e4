package vary

import (
	"math"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/device"
	"nanosim/internal/part"
	"nanosim/internal/randx"
	"nanosim/internal/sde"
	"nanosim/internal/wave"
)

// rtdDivider builds the paper's RTD voltage divider, small and fast.
func rtdDivider(t testing.TB) *circuit.Circuit {
	t.Helper()
	c := circuit.New("rtd divider")
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.AddVSource("V1", "in", "0", device.DC(0.8))
	mustOK(err)
	_, err = c.AddResistor("R1", "in", "d", 600)
	mustOK(err)
	_, err = c.AddDevice("N1", "d", "0", device.NewRTD())
	mustOK(err)
	_, err = c.AddCapacitor("CD", "d", "0", 10e-15)
	mustOK(err)
	return c
}

// rtdLadder builds an n-stage RC+RTD ladder, large enough to engage the
// sparse backend.
func rtdLadder(t testing.TB, n int) *circuit.Circuit {
	t.Helper()
	c := circuit.New("rtd ladder")
	prev := "in"
	if _, err := c.AddVSource("V1", "in", "0", device.DC(0.8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		node := "n" + string(rune('a'+i))
		if _, err := c.AddResistor("R"+node, prev, node, 300); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddDevice("N"+node, node, "0", device.NewRTD()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddCapacitor("C"+node, node, "0", 10e-15); err != nil {
			t.Fatal(err)
		}
		prev = node
	}
	return c
}

func tranJob() Job {
	return Job{Analysis: "tran", Tran: core.Options{TStop: 2e-9, HInit: 5e-11}}
}

func seriesEqual(t *testing.T, a, b *wave.Series) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("series nil mismatch: %v vs %v", a, b)
		}
		return
	}
	if a.Len() != b.Len() {
		t.Fatalf("series %q length %d vs %d", a.Name, a.Len(), b.Len())
	}
	for i := range a.V {
		if a.T[i] != b.T[i] || a.V[i] != b.V[i] {
			t.Fatalf("series %q diverges at %d: (%g,%g) vs (%g,%g)",
				a.Name, i, a.T[i], a.V[i], b.T[i], b.V[i])
		}
	}
}

// TestMonteCarloDeterministicAcrossWorkers is the core reproducibility
// contract: the same seed is bit-identical at any parallelism.
func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	base := Options{
		Trials: 24,
		Seed:   42,
		Specs: []Spec{
			{Elem: "N1", Param: "A", Sigma: 0.05, Rel: true},
			{Elem: "R1", Sigma: 0.10, Rel: true, Dist: Uniform},
		},
		Job:    tranJob(),
		Limits: []Limit{{Signal: "v(d)", Stat: "final", Lo: 0, Hi: 1}},
	}
	o1 := base
	o1.Workers = 1
	r1, err := MonteCarlo(rtdDivider(t), o1)
	if err != nil {
		t.Fatal(err)
	}
	o8 := base
	o8.Workers = 8
	r8, err := MonteCarlo(rtdDivider(t), o8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Failed != 0 || r8.Failed != 0 {
		t.Fatalf("unexpected failures: %d / %d (%v)", r1.Failed, r8.Failed, append(r1.TrialErrors, r8.TrialErrors...))
	}
	s1, s8 := r1.Signal("v(d)"), r8.Signal("v(d)")
	for i := range s1.Final {
		if s1.Final[i] != s8.Final[i] || s1.Min[i] != s8.Min[i] || s1.Max[i] != s8.Max[i] {
			t.Fatalf("trial %d measures differ between 1 and 8 workers", i)
		}
	}
	seriesEqual(t, s1.Mean, s8.Mean)
	seriesEqual(t, s1.Std, s8.Std)
	seriesEqual(t, s1.QLo, s8.QLo)
	seriesEqual(t, s1.QHi, s8.QHi)
	if r1.Passed != r8.Passed || r1.Yield != r8.Yield {
		t.Fatalf("yield differs: %d/%g vs %d/%g", r1.Passed, r1.Yield, r8.Passed, r8.Yield)
	}
}

// TestPartitionedMonteCarloDeterministicAcrossWorkers extends the
// reproducibility contract to partitioned per-trial transients: with
// one solver per tear block reused across trials (sequence-keyed worker
// cache), the same seed must stay bit-identical at any parallelism.
func TestPartitionedMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	// A rail of multi-node stages so the partitioner produces several
	// same-dimension blocks (the sequence-cache's hard case), each large
	// enough for the sparse backend whose pattern/LU reuse we assert.
	ckt := circuit.New("rail")
	if _, err := ckt.AddVSource("V1", "in", "0", device.DC(0.8)); err != nil {
		t.Fatal(err)
	}
	mustOK := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	const depth = 10 // internal ladder nodes per stage (> AutoCrossover)
	for i := 0; i < 3; i++ {
		nd := func(k int) string { return "s" + string(rune('a'+i)) + string(rune('a'+k)) }
		mustOK(ckt.AddResistor("R"+nd(0), "in", nd(0), 300))
		for k := 1; k < depth; k++ {
			mustOK(ckt.AddResistor("R"+nd(k), nd(k-1), nd(k), 100))
			mustOK(ckt.AddCapacitor("C"+nd(k), nd(k), "0", 10e-15))
		}
		mustOK(ckt.AddDevice("N"+nd(depth-1), nd(depth-1), "0", device.NewRTD()))
	}
	job := Job{Analysis: "tran", Tran: core.Options{
		TStop: 2e-9, HInit: 5e-11, Partition: &part.Options{}}}
	base := Options{
		Trials: 24,
		Seed:   20050307,
		Specs:  []Spec{{Elem: "N*", Param: "A", Sigma: 0.05, Rel: true}},
		Job:    job,
		Limits: []Limit{{Signal: "v(saa)", Stat: "final", Lo: 0, Hi: 1}},
	}
	o1 := base
	o1.Workers = 1
	r1, err := MonteCarlo(ckt, o1)
	if err != nil {
		t.Fatal(err)
	}
	o8 := base
	o8.Workers = 8
	r8, err := MonteCarlo(ckt, o8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Failed != 0 || r8.Failed != 0 {
		t.Fatalf("unexpected failures: %d / %d (%v)", r1.Failed, r8.Failed, append(r1.TrialErrors, r8.TrialErrors...))
	}
	for _, name := range []string{"v(saa)", "v(scj)"} {
		s1, s8 := r1.Signal(name), r8.Signal(name)
		for i := range s1.Final {
			if s1.Final[i] != s8.Final[i] || s1.Min[i] != s8.Min[i] || s1.Max[i] != s8.Max[i] {
				t.Fatalf("%s: trial %d measures differ between 1 and 8 workers", name, i)
			}
		}
		seriesEqual(t, s1.Mean, s8.Mean)
		seriesEqual(t, s1.QLo, s8.QLo)
		seriesEqual(t, s1.QHi, s8.QHi)
	}
	if r1.Passed != r8.Passed || r1.Yield != r8.Yield {
		t.Fatalf("yield differs: %d/%g vs %d/%g", r1.Passed, r1.Yield, r8.Passed, r8.Yield)
	}
	// The sequence cache must actually reuse each block's solver: the
	// sparse stage blocks should run on numeric refactors, not rebuild
	// their pattern or full-factor per step.
	if r8.Solve.NumericRefactor == 0 || r8.Solve.NumericRefactor < r8.Solve.FullFactor {
		t.Fatalf("cross-trial block-solver reuse not engaged: %+v", r8.Solve)
	}
}

// TestMonteCarloZeroSigma checks that zero tolerance reproduces the
// nominal circuit in every trial.
func TestMonteCarloZeroSigma(t *testing.T) {
	res, err := MonteCarlo(rtdDivider(t), Options{
		Trials: 6,
		Seed:   7,
		Specs:  []Spec{{Elem: "N1", Param: "A", Sigma: 0, Rel: true}},
		Job:    tranJob(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sg := res.Signal("v(d)")
	for i := 1; i < len(sg.Final); i++ {
		if sg.Final[i] != sg.Final[0] {
			t.Fatalf("zero-sigma trials differ: %g vs %g", sg.Final[i], sg.Final[0])
		}
	}
	nom := res.Nominal.Get("v(d)").Final()
	if math.Abs(sg.Final[0]-nom) > 1e-9 {
		t.Errorf("zero-sigma trial %g deviates from nominal %g", sg.Final[0], nom)
	}
	if sd := sg.Std.V[len(sg.Std.V)-1]; sd != 0 {
		t.Errorf("zero-sigma std = %g, want 0", sd)
	}
}

// TestMCPrepareLotVsDev checks the draw-sharing semantics directly.
func TestMCPrepareLotVsDev(t *testing.T) {
	c := circuit.New("pair")
	if _, err := c.AddVSource("V1", "in", "0", device.DC(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("RA", "in", "m", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("RB", "m", "0", 1000); err != nil {
		t.Fatal(err)
	}

	mustResolve := func(specs []Spec) []resolvedSpec {
		t.Helper()
		rs, err := resolveSpecs(c, specs)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	lot := c.Clone()
	if _, err := mcPrepare(9, 3, mustResolve([]Spec{{Elem: "R*", Sigma: 0.2, Rel: true, Lot: true}}))(lot, randx.New(0)); err != nil {
		t.Fatal(err)
	}
	ra := lot.Element("RA").(*circuit.Resistor).R
	rb := lot.Element("RB").(*circuit.Resistor).R
	if ra != rb {
		t.Errorf("LOT draws differ: RA=%g RB=%g", ra, rb)
	}
	if ra == 1000 {
		t.Error("LOT draw left nominal value unchanged (astronomically unlikely)")
	}

	dev := c.Clone()
	if _, err := mcPrepare(9, 3, mustResolve([]Spec{{Elem: "R*", Sigma: 0.2, Rel: true}}))(dev, randx.New(0)); err != nil {
		t.Fatal(err)
	}
	if dev.Element("RA").(*circuit.Resistor).R == dev.Element("RB").(*circuit.Resistor).R {
		t.Error("DEV draws identical (astronomically unlikely)")
	}
}

// TestSweepResistorDivider checks grid ordering and values against the
// analytic divider answer, via the op job.
func TestSweepResistorDivider(t *testing.T) {
	c := circuit.New("divider")
	if _, err := c.AddVSource("V1", "in", "0", device.DC(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("R1", "in", "out", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("R2", "out", "0", 1000); err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(c, SweepOptions{
		Axes: []SweepAxis{{Elem: "R2", From: 500, To: 2000, Points: 4}},
		Job:  Job{Analysis: "op"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs() != 4 || res.Failed != 0 {
		t.Fatalf("runs=%d failed=%d %v", res.Runs(), res.Failed, res.TrialErrors)
	}
	for r, pt := range res.Values {
		r2 := pt[0]
		want := r2 / (1000 + r2)
		got := res.Final["v(out)"][r]
		if math.Abs(got-want) > 1e-5 {
			t.Errorf("run %d (R2=%g): v(out)=%g want %g", r, r2, got, want)
		}
	}
	if res.Values[0][0] != 500 || res.Values[3][0] != 2000 {
		t.Errorf("grid bounds wrong: %v", res.Values)
	}
}

// TestSweepCartesianOrder checks that the last axis steps fastest.
func TestSweepCartesianOrder(t *testing.T) {
	c := circuit.New("divider")
	if _, err := c.AddVSource("V1", "in", "0", device.DC(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("R1", "in", "out", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("R2", "out", "0", 1000); err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(c, SweepOptions{
		Axes: []SweepAxis{
			{Elem: "R1", From: 1000, To: 2000, Points: 2},
			{Elem: "R2", From: 100, To: 300, Points: 3},
		},
		Job: Job{Analysis: "op"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{1000, 100}, {1000, 200}, {1000, 300},
		{2000, 100}, {2000, 200}, {2000, 300},
	}
	for r, pt := range res.Values {
		if pt[0] != want[r][0] || pt[1] != want[r][1] {
			t.Fatalf("run %d grid point %v, want %v", r, pt, want[r])
		}
	}
}

// TestMonteCarloEMJob checks the combined parameter + input-noise mode
// stays deterministic across workers.
func TestMonteCarloEMJob(t *testing.T) {
	c := circuit.New("noisy rc")
	src, err := c.AddISource("IN", "0", "x", device.DC(50e-6))
	if err != nil {
		t.Fatal(err)
	}
	src.NoiseSigma = 8e-10
	if _, err := c.AddResistor("R1", "x", "0", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddCapacitor("C1", "x", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	base := Options{
		Trials: 12,
		Seed:   11,
		Specs:  []Spec{{Elem: "R1", Sigma: 0.05, Rel: true}},
		Job:    Job{Analysis: "em", EM: sde.Options{TStop: 1e-9, Steps: 100}},
	}
	o1 := base
	o1.Workers = 1
	r1, err := MonteCarlo(c, o1)
	if err != nil {
		t.Fatal(err)
	}
	o4 := base
	o4.Workers = 4
	r4, err := MonteCarlo(c, o4)
	if err != nil {
		t.Fatal(err)
	}
	s1, s4 := r1.Signal("v(x)"), r4.Signal("v(x)")
	for i := range s1.Final {
		if s1.Final[i] != s4.Final[i] {
			t.Fatalf("EM trial %d differs across workers: %g vs %g", i, s1.Final[i], s4.Final[i])
		}
	}
	// Distinct trials must see distinct noise paths.
	if s1.Final[0] == s1.Final[1] {
		t.Error("EM trials share a path (astronomically unlikely)")
	}
}

// TestMonteCarloSolverReuse asserts the per-worker solver state actually
// carries across trials: numeric-only refactorizations dominate and full
// factorizations stay bounded by the warm-ups.
func TestMonteCarloSolverReuse(t *testing.T) {
	res, err := MonteCarlo(rtdLadder(t, 12), Options{
		Trials:  10,
		Seed:    5,
		Workers: 2,
		Specs:   []Spec{{Elem: "N*", Param: "A", Sigma: 0.05, Rel: true}},
		Job:     tranJob(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failures: %v", res.TrialErrors)
	}
	st := res.Solve
	if st.NumericRefactor == 0 {
		t.Fatalf("no numeric refactorizations recorded: %+v", st)
	}
	// One full factorization per worker warm-up (plus pivot-drift
	// fallbacks, which this mild workload must not trigger).
	if st.FullFactor > 2 {
		t.Errorf("FullFactor = %d, want <= 2 (one per worker)", st.FullFactor)
	}
	if st.NumericRefactor < 100*st.FullFactor {
		t.Errorf("reuse did not engage: numeric=%d full=%d", st.NumericRefactor, st.FullFactor)
	}
}

// TestMonteCarloYield checks limit handling.
func TestMonteCarloYield(t *testing.T) {
	opt := Options{
		Trials: 20,
		Seed:   3,
		Specs:  []Spec{{Elem: "N1", Param: "A", Sigma: 0.05, Rel: true}},
		Job:    tranJob(),
	}
	optAll := opt
	optAll.Limits = []Limit{{Signal: "v(d)", Lo: math.Inf(-1), Hi: math.Inf(1)}}
	res, err := MonteCarlo(rtdDivider(t), optAll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 1 || res.Passed != 20 {
		t.Errorf("open limits: yield %g passed %d, want 1/20", res.Yield, res.Passed)
	}
	optNone := opt
	optNone.Limits = []Limit{{Signal: "v(d)", Lo: 10, Hi: 20}}
	res, err = MonteCarlo(rtdDivider(t), optNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 0 || res.Passed != 0 {
		t.Errorf("impossible limits: yield %g passed %d, want 0/0", res.Yield, res.Passed)
	}
	// Without limits yield is NaN.
	res, err = MonteCarlo(rtdDivider(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Yield) {
		t.Errorf("yield without limits = %g, want NaN", res.Yield)
	}
	if res.Signal("v(d)").FinalHist == nil {
		t.Error("final-value histogram missing")
	}
}

// TestMonteCarloValidation exercises the fail-fast paths.
func TestMonteCarloValidation(t *testing.T) {
	ckt := rtdDivider(t)
	cases := []Options{
		{Trials: 4, Job: tranJob()}, // no specs
		{Trials: 4, Specs: []Spec{{Elem: "NOPE", Sigma: 0.1}}, Job: tranJob()},
		{Trials: 4, Specs: []Spec{{Elem: "N1", Param: "ZZZ", Sigma: 0.1}}, Job: tranJob()},
		{Trials: 4, Specs: []Spec{{Elem: "N1", Param: "A", Sigma: 0.1}}, Job: Job{Analysis: "bogus"}},
		{Trials: 4, Specs: []Spec{{Elem: "N1", Param: "A", Sigma: 0.1}}, Job: tranJob(), GridPoints: 1},
		{Trials: 4, Specs: []Spec{{Elem: "N1", Param: "A", Sigma: 0.1}}, Job: tranJob(),
			Limits: []Limit{{Signal: "v(d)", Stat: "weird", Lo: 0, Hi: 1}}},
	}
	for i, o := range cases {
		if _, err := MonteCarlo(ckt, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := Sweep(ckt, SweepOptions{Job: tranJob()}); err == nil {
		t.Error("axis-less sweep accepted")
	}
	if _, err := Sweep(rtdLadder(t, 2), SweepOptions{
		Axes: []SweepAxis{{Elem: "N*", Param: "A", From: 1, To: 2, Points: 2}},
		Job:  tranJob(),
	}); err == nil {
		t.Error("multi-match sweep axis accepted")
	}
}

// TestLognormalStaysPositive checks the multiplicative distribution on a
// positivity-constrained parameter.
func TestLognormalStaysPositive(t *testing.T) {
	res, err := MonteCarlo(rtdDivider(t), Options{
		Trials: 32,
		Seed:   13,
		Specs:  []Spec{{Elem: "R1", Dist: Lognormal, Sigma: 0.5}},
		Job:    Job{Analysis: "op"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("lognormal R draws failed: %v", res.TrialErrors)
	}
	// Op jobs aggregate scalars only.
	if sg := res.Signal("v(d)"); sg.Mean != nil {
		t.Error("op job produced envelope series")
	}
}
