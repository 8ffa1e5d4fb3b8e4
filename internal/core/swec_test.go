package core

import (
	"math"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/stamp"
)

// rcCircuit builds V1 -- R(1k) -- out -- C(1n) -- gnd with the given
// source waveform. Time constant 1 µs.
func rcCircuit(w device.Waveform) *circuit.Circuit {
	c := circuit.New("rc")
	c.AddVSource("V1", "in", "0", w)
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddCapacitor("C1", "out", "0", 1e-9)
	return c
}

// TestRCStepResponse compares SWEC on a linear RC against the analytic
// charging curve: on a linear circuit SWEC must reduce to plain backward
// Euler and track 1-exp(-t/tau) closely.
func TestRCStepResponse(t *testing.T) {
	ckt := rcCircuit(device.DC(1))
	res, err := Transient(ckt, Options{TStop: 5e-6, Eps: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Waves.Get("v(out)")
	if out == nil {
		t.Fatal("missing v(out)")
	}
	tau := 1e-6
	for _, tt := range []float64{0.5e-6, 1e-6, 2e-6, 4e-6} {
		want := 1 - math.Exp(-tt/tau)
		got := out.At(tt)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("v(out) at %g = %g, want %g", tt, got, want)
		}
	}
	if v := out.Final(); math.Abs(v-1) > 0.01 {
		t.Errorf("final = %g, want ~1", v)
	}
	if res.Stats.Steps == 0 || res.Stats.Solves == 0 {
		t.Error("stats not populated")
	}
}

// TestRCPulseTracksEdges: breakpoint handling must land steps exactly on
// pulse corners so the output follows both edges.
func TestRCPulseTracksEdges(t *testing.T) {
	p := device.Pulse{V1: 0, V2: 1, Delay: 1e-6, Rise: 10e-9, Fall: 10e-9, Width: 3e-6}
	ckt := rcCircuit(p)
	res, err := Transient(ckt, Options{TStop: 8e-6})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Waves.Get("v(out)")
	// Before the pulse: 0. Well into the pulse: ~1. After: decays.
	if v := out.At(0.9e-6); math.Abs(v) > 0.01 {
		t.Errorf("pre-pulse v = %g", v)
	}
	if v := out.At(3.9e-6); v < 0.9 {
		t.Errorf("pulse-top v = %g, want > 0.9", v)
	}
	if v := out.At(7.9e-6); v > 0.1 {
		t.Errorf("post-pulse v = %g, want < 0.1", v)
	}
}

// TestLinearDividerExact: a resistive divider solves exactly in one step
// regardless of step size.
func TestLinearDividerExact(t *testing.T) {
	c := circuit.New("div")
	c.AddVSource("V1", "in", "0", device.DC(4))
	c.AddResistor("R1", "in", "mid", 3e3)
	c.AddResistor("R2", "mid", "0", 1e3)
	c.AddCapacitor("CL", "mid", "0", 1e-15)
	res, err := Transient(c, Options{TStop: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Waves.Get("v(mid)").Final(); math.Abs(v-1) > 1e-6 {
		t.Errorf("v(mid) = %g, want 1", v)
	}
}

// rtdDivider is the Figure 7(a) circuit: V -- R -- (dev) -- gnd.
func rtdDivider(m device.IV, rOhms float64, w device.Waveform) *circuit.Circuit {
	c := circuit.New("rtd-divider")
	c.AddVSource("V1", "in", "0", w)
	c.AddResistor("R1", "in", "d", rOhms)
	c.AddDevice("N1", "d", "0", m)
	c.AddCapacitor("CD", "d", "0", 10e-15)
	return c
}

// TestRTDDividerRampThroughNDR drives the divider with a slow ramp that
// forces the RTD through its NDR region; SWEC must integrate through
// without oscillation or failure, and the load-line solution must stay
// consistent with the device model (KCL at the divider node).
func TestRTDDividerRampThroughNDR(t *testing.T) {
	rtd := device.NewRTD()
	ramp, _ := device.NewPWL([]float64{0, 1e-3}, []float64{0, 1.5})
	ckt := rtdDivider(rtd, 400, ramp)
	res, err := Transient(ckt, Options{TStop: 1e-3, Eps: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	vd := res.Waves.Get("v(d)")
	vin := res.Waves.Get("v(in)")
	// KCL check at a set of sample times: (vin-vd)/R = I_rtd(vd) within
	// tolerance (the cap current is negligible on a 1 ms ramp).
	for _, ts := range []float64{2e-4, 4e-4, 6e-4, 8e-4, 9.9e-4} {
		vdd := vd.At(ts)
		iR := (vin.At(ts) - vdd) / 400
		iD := rtd.I(vdd)
		if math.Abs(iR-iD) > 0.05*math.Max(math.Abs(iD), 1e-5) {
			t.Errorf("KCL violated at t=%g: iR=%g iRTD=%g (vd=%g)", ts, iR, iD, vdd)
		}
	}
	// The device voltage must traverse past the peak (through NDR).
	vp, _, _, _, _ := rtd.PeakValley(1.2)
	if vd.Final() < vp {
		t.Errorf("ramp did not traverse NDR: final vd = %g < peak %g", vd.Final(), vp)
	}
}

// TestGeqStampedPositive: during an NDR traversal, every stamped
// equivalent conductance must remain positive (the paper's core claim).
// We verify via the engine's device state after stepping.
func TestGeqStampedPositive(t *testing.T) {
	rtd := device.NewRTD()
	ramp, _ := device.NewPWL([]float64{0, 1e-4}, []float64{0, 1.4})
	ckt := rtdDivider(rtd, 300, ramp)
	sys, opt := mustSystem(t, ckt, Options{TStop: 1e-4})
	e, err := newEngine(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.run(); err != nil {
		t.Fatal(err)
	}
	for k := range e.ttGeq {
		if e.ttGeq[k] <= 0 {
			t.Errorf("device %d ended with non-positive Geq %g", k, e.ttGeq[k])
		}
	}
}

func mustSystem(t *testing.T, ckt *circuit.Circuit, opt Options) (*stamp.System, Options) {
	t.Helper()
	o, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := stamp.NewSystem(ckt)
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

// TestAdaptiveBeatsFixedStepCount: with adaptive control the engine
// should need fewer steps than a fixed fine grid for the same accuracy
// target on a mostly-quiet waveform.
func TestAdaptiveBeatsFixedStepCount(t *testing.T) {
	p := device.Pulse{V1: 0, V2: 1, Delay: 5e-6, Rise: 10e-9, Fall: 10e-9, Width: 1e-6, Period: 100e-6}
	adaptive, err := Transient(rcCircuit(p), Options{TStop: 50e-6, Eps: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Transient(rcCircuit(p), Options{TStop: 50e-6, FixedStep: true, HInit: 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Stats.Steps >= fixed.Stats.Steps {
		t.Errorf("adaptive %d steps >= fixed %d", adaptive.Stats.Steps, fixed.Stats.Steps)
	}
	// Both must agree on the response after the pulse.
	a := adaptive.Waves.Get("v(out)")
	f := fixed.Waves.Get("v(out)")
	if d := math.Abs(a.At(5.9e-6) - f.At(5.9e-6)); d > 0.05 {
		t.Errorf("adaptive/fixed disagree by %g", d)
	}
}

// TestPredictorAblation: the Taylor predictor (eq 5) must not change the
// converged waveform materially, but it is exercised (different device
// eval counts).
func TestPredictorAblation(t *testing.T) {
	ramp, _ := device.NewPWL([]float64{0, 1e-4}, []float64{0, 1.2})
	mk := func() *circuit.Circuit { return rtdDivider(device.NewRTD(), 300, ramp) }
	with, err := Transient(mk(), Options{TStop: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Transient(mk(), Options{TStop: 1e-4, NoPredictor: true})
	if err != nil {
		t.Fatal(err)
	}
	a := with.Waves.Get("v(d)")
	b := without.Waves.Get("v(d)")
	if d := math.Abs(a.Final() - b.Final()); d > 0.05 {
		t.Errorf("predictor changes endpoint by %g", d)
	}
	if with.Stats.DeviceEvals <= without.Stats.DeviceEvals {
		t.Error("predictor should cost extra device evaluations")
	}
}

func TestTransientOptionValidation(t *testing.T) {
	ckt := rcCircuit(device.DC(1))
	if _, err := Transient(ckt, Options{}); err == nil {
		t.Error("TStop=0 accepted")
	}
	if _, err := Transient(ckt, Options{TStop: -1}); err == nil {
		t.Error("negative TStop accepted")
	}
	// Broken circuit propagates validation error.
	bad := circuit.New("bad")
	bad.AddResistor("R1", "a", "b", 1)
	if _, err := Transient(bad, Options{TStop: 1}); err == nil {
		t.Error("invalid circuit accepted")
	}
	// MaxSteps guard.
	if _, err := Transient(ckt, Options{TStop: 1e-3, FixedStep: true, HInit: 1e-9, MaxSteps: 10}); err == nil {
		t.Error("MaxSteps not enforced")
	}
}

func TestInitialConditions(t *testing.T) {
	ckt := rcCircuit(device.DC(0))
	res, err := Transient(ckt, Options{TStop: 5e-6, IC: map[string]float64{"out": 1}})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Waves.Get("v(out)")
	if math.Abs(out.V[0]-1) > 1e-12 {
		t.Errorf("IC not applied: first sample %g", out.V[0])
	}
	// Discharges toward 0.
	if v := out.Final(); math.Abs(v) > 0.05 {
		t.Errorf("discharge final = %g", v)
	}
	if _, err := Transient(ckt, Options{TStop: 1e-6, IC: map[string]float64{"nope": 1}}); err == nil {
		t.Error("unknown IC node accepted")
	}
}

func TestFlopAccounting(t *testing.T) {
	var fc flop.Counter
	ckt := rtdDivider(device.NewRTD(), 300, device.DC(0.5))
	res, err := Transient(ckt, Options{TStop: 1e-6, FC: &fc, Solver: linsolve.NewDense})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flops.Total() == 0 {
		t.Error("no flops recorded")
	}
	if res.Stats.Flops.DeviceEvals == 0 {
		t.Error("no device evals recorded")
	}
	if fc.Snapshot().Solves != res.Stats.Solves {
		t.Errorf("solver events %d != stats %d", fc.Snapshot().Solves, res.Stats.Solves)
	}
}

// TestSparseDenseAgree runs the same RTD transient on both backends.
func TestSparseDenseAgree(t *testing.T) {
	ramp, _ := device.NewPWL([]float64{0, 1e-5}, []float64{0, 1.0})
	mk := func() *circuit.Circuit { return rtdDivider(device.NewRTD(), 300, ramp) }
	d, err := Transient(mk(), Options{TStop: 1e-5, Solver: linsolve.NewDense})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Transient(mk(), Options{TStop: 1e-5, Solver: linsolve.NewSparse})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(d.Waves.Get("v(d)").Final() - s.Waves.Get("v(d)").Final()); diff > 1e-9 {
		t.Errorf("backends disagree by %g", diff)
	}
}

// TestTransientReusesFactorization verifies the tentpole hot-path
// property end to end: during a transient on the sparse backend, the
// compiled stamp pattern is built exactly once and essentially every
// accepted step reuses the symbolic factorization (numeric-only
// refactorization), with no pattern rebuilds.
func TestTransientReusesFactorization(t *testing.T) {
	ckt := circuit.New("chain")
	ckt.AddVSource("V1", "in", "0", device.Pulse{V1: 0.2, V2: 1.0, Delay: 10e-9, Rise: 2e-9, Fall: 2e-9, Width: 50e-9})
	for i := 0; i < 40; i++ {
		nd := string(rune('a'+i%26)) + string(rune('0'+i/26))
		ckt.AddResistor("R"+nd, "in", nd, 400)
		ckt.AddDevice("N"+nd, nd, "0", device.NewRTD())
		ckt.AddCapacitor("C"+nd, nd, "0", 10e-15)
	}
	var captured linsolve.Solver
	res, err := Transient(ckt, Options{
		TStop: 100e-9,
		Solver: func(n int, fc *flop.Counter) linsolve.Solver {
			captured = linsolve.NewSparse(n, fc)
			return captured
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := captured.(linsolve.Refactorable).SolveStats()
	if st.PatternRebuild != 0 {
		t.Fatalf("fixed circuit must never rebuild its stamp pattern: %+v", st)
	}
	if st.FullFactor > 2 {
		t.Errorf("expected at most the initial (plus one fallback) full factorization, got %+v", st)
	}
	if int64(st.NumericRefactor) < res.Stats.Solves-4 {
		t.Errorf("numeric refactor engaged on %d of %d solves: %+v",
			st.NumericRefactor, res.Stats.Solves, st)
	}
}

// TestDCSolveAtZeroAlloc: once warm, a sparse-backed fixed-point pass
// of the DC solver allocates nothing; the new state lands in the
// solver's own buffer, which the caller copies out before the next pass.
func TestDCSolveAtZeroAlloc(t *testing.T) {
	sys, err := stamp.NewSystem(rtdDivider(device.NewRTD(), 300, device.DC(0.8)))
	if err != nil {
		t.Fatal(err)
	}
	d := newDCSolver(sys, DCOptions{Solver: linsolve.NewSparse}.withDefaults())
	x := make([]float64, sys.Dim())
	var st Stats
	pass := func() {
		xNew, err := d.solveAt(0, x, &st)
		if err != nil {
			t.Fatal(err)
		}
		copy(x, xNew)
	}
	pass() // compile the pattern and factor
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("warm solveAt allocates %.1f times per call, want 0", allocs)
	}
}
