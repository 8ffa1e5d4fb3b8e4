// Package core implements the paper's primary contribution: the
// Step-Wise Equivalent Conductance (SWEC) circuit simulation engine.
//
// SWEC replaces each nonlinear device by its equivalent conductance
// Geq(V) = I(V)/V — positive for every passive device, even across
// negative-differential-resistance (NDR) regions — and integrates the
// resulting *linear time-varying* system
//
//	(G(t) + C/h)·x(t+h) = (C/h)·x(t) + b(t+h)
//
// with backward Euler. No Newton-Raphson iteration is performed at any
// time point, which removes both the NDR oscillation/false-convergence
// problem (paper §3.1-3.2) and the per-step iteration cost the 20-30×
// speedup claim rests on.
//
// The equivalent conductance at the next time point is predicted by the
// first-order Taylor expansion of paper eq (5),
//
//	Geq(n+1) = Geq(n) + (h/2)·Geq'(n),   Geq' = dGeq/dV · dV/dt   (eq 7)
//
// with dV/dt estimated from the previous step (eq 9). Time steps adapt
// per eqs (10)-(12): device bounds 3·ε·V/α and node bounds ε·C_j/ΣG_j,
// with step rejection when the realized local error exceeds ε.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/part"
	"nanosim/internal/stamp"
	"nanosim/internal/trace"
	"nanosim/internal/wave"
)

// Options configures a SWEC transient analysis. Zero values select the
// documented defaults.
type Options struct {
	// TStop is the end time (required, > TStart).
	TStop float64
	// TStart is the start time (default 0).
	TStart float64
	// HInit is the first step (default (TStop-TStart)/1000).
	HInit float64
	// HMin is the smallest allowed step (default HInit*1e-6).
	HMin float64
	// HMax is the largest allowed step (default (TStop-TStart)/50).
	HMax float64
	// Eps is the local error target ε of eqs (10)-(12) (default 0.01).
	Eps float64
	// Gmin is the diagonal leak conductance (default 1e-12 S).
	Gmin float64
	// NoPredictor disables the eq (5) Taylor predictor (ablation).
	NoPredictor bool
	// Correctors adds fixed-point correction passes per step: after the
	// solve, conductances are re-evaluated at the new state and the step
	// re-solved. 0 is the paper's non-iterative algorithm; 1-2 passes
	// harden the engine against diode-stiff exponential branches where
	// the Geq map is marginal (a documented extension, see ABL-PRED in
	// DESIGN.md).
	Correctors int
	// FixedStep disables adaptive time-step control (ablation): the
	// engine marches at HInit.
	FixedStep bool
	// Trapezoidal switches the implicit integrator from backward Euler
	// to the trapezoidal rule (SPICE-style companion models: storage
	// elements carry trap companions, KCL is enforced at the new time).
	// Second-order accurate; an extension beyond the paper's BE scheme.
	Trapezoidal bool
	// MaxSteps bounds the accepted-step count (default 10_000_000).
	MaxSteps int
	// Solver picks the linear backend (default linsolve.Auto).
	Solver linsolve.Factory
	// FC receives FLOP accounting (may be nil).
	FC *flop.Counter
	// IC maps node names to initial voltages.
	IC map[string]float64
	// RecordCurrents adds voltage-source branch currents to the output.
	RecordCurrents bool
	// Probes, when non-empty, names the only signals recorded
	// ("v(node)", and "i(Vname)" with RecordCurrents; see
	// trace.Records); names matching no signal are ignored. Empty
	// records every signal. Recording never feeds back into the
	// integration: a probed run's series equal the full run's, bit for
	// bit, as do its X and Stats.
	Probes []string
	// Ctx, when non-nil, is polled once per attempted step; a canceled
	// context aborts the run with context.Cause. This is the hook that
	// lets a long-running service (cmd/nanosimd) stop a job mid-transient
	// instead of waiting out the whole integration.
	Ctx context.Context
	// Workers is ignored: both engines step on the calling goroutine.
	//
	// Deprecated: the torn-block engine no longer has a worker pool. The
	// field stays only so existing callers compile.
	Workers int
	// Partition enables the torn-block engine (internal/part): the
	// circuit is split into weakly coupled blocks, each with its own
	// stamped system and compiled-pattern solver, coupled Gauss-Jacobi
	// through their tear-branch currents, and quiescent (dormant) blocks
	// skip stamping and solving entirely until an input breakpoint or
	// neighbor activity wakes them. nil runs the monolithic engine; a
	// partition that degenerates to one block falls back to it too.
	Partition *part.Options
}

// withDefaults validates and fills in defaults.
func (o Options) withDefaults() (Options, error) {
	if o.TStop <= o.TStart {
		return o, fmt.Errorf("core: TStop %g must exceed TStart %g", o.TStop, o.TStart)
	}
	span := o.TStop - o.TStart
	if o.HInit <= 0 {
		o.HInit = span / 1000
	}
	if o.HMax <= 0 {
		o.HMax = span / 50
	}
	if o.HMin <= 0 {
		o.HMin = o.HInit * 1e-6
	}
	if o.HMin > o.HInit {
		o.HMin = o.HInit
	}
	if o.Eps <= 0 {
		o.Eps = 0.01
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 10_000_000
	}
	if o.Solver == nil {
		o.Solver = linsolve.Auto
	}
	return o, nil
}

// Validate reports the error Transient returns for these options
// before it looks at the circuit, nil when they are valid.
func (o Options) Validate() error {
	_, err := o.withDefaults()
	return err
}

// Stats reports the work a simulation performed.
type Stats struct {
	// Steps is the number of accepted time steps.
	Steps int
	// Rejected is the number of rejected (halved) steps.
	Rejected int
	// DeviceEvals counts nonlinear model evaluations.
	DeviceEvals int64
	// Solves counts linear-system factorizations.
	Solves int64
	// Flops is the flop snapshot attributable to this run (zero when no
	// counter was supplied).
	Flops flop.Snapshot
	// Blocks and Tears describe the partition when the torn-block engine
	// ran (both zero for the monolithic engine).
	Blocks int
	Tears  int
	// BlockSolves counts per-block linear solves and BlockSkips the
	// block-steps dormancy skipped; their ratio is the latency win.
	BlockSolves int64
	BlockSkips  int64
}

// Result is a transient analysis outcome.
type Result struct {
	// Waves holds v(node) and optional i(Vsrc) series.
	Waves *wave.Set
	// Stats reports the work performed.
	Stats Stats
	// X is the final state vector.
	X []float64
}

// vFloor keeps relative error tests meaningful near 0 V.
const vFloor = 1e-6

// Transient runs the SWEC algorithm on ckt.
func Transient(ckt *circuit.Circuit, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	if opt.Partition != nil {
		p, err := part.Build(ckt, sys, *opt.Partition)
		if err != nil {
			return nil, err
		}
		if len(p.Blocks) > 1 {
			pe, err := newPartEngine(sys, p, opt)
			if err != nil {
				return nil, err
			}
			return pe.run()
		}
		// Degenerate single-block partition: the monolithic engine is
		// the same computation without the tear bookkeeping.
	}
	e, err := newEngine(sys, opt)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// breakSet is a deduplicated, sorted breakpoint schedule with a
// span-relative tolerance. The tolerance replaces the old absolute
// 1e-18 s guard, which silently skipped breakpoints on femtosecond-scale
// runs (where 1e-18 is a visible fraction of the span) and could revisit
// one on long runs (where accumulated time roundoff exceeds 1e-18).
type breakSet struct {
	ts     []float64
	tol    float64
	tstart float64
	tstop  float64
}

// breakRelTol scales the run span into the breakpoint tolerance: large
// enough to absorb accumulated float64 step roundoff (a few thousand
// ulps), small enough that merging breakpoints within it is invisible
// at any simulated scale.
const breakRelTol = 1e-9

func newBreakSet(tstart, tstop float64) *breakSet {
	return &breakSet{tol: (tstop - tstart) * breakRelTol, tstart: tstart, tstop: tstop}
}

// addWave collects a waveform's corner times within the run window.
func (b *breakSet) addWave(w device.Waveform) {
	for _, t := range device.BreakTimes(w, b.tstop) {
		if t > b.tstart+b.tol && t < b.tstop-b.tol {
			b.ts = append(b.ts, t)
		}
	}
}

// addSources collects every source waveform of sys.
func (b *breakSet) addSources(sys *stamp.System) {
	for _, s := range sys.VSources() {
		b.addWave(s.V.W)
	}
	for _, s := range sys.ISources() {
		b.addWave(s.I.W)
	}
}

// seal sorts the schedule and merges breakpoints within tolerance.
func (b *breakSet) seal() {
	sort.Float64s(b.ts)
	out := b.ts[:0]
	for _, t := range b.ts {
		if len(out) == 0 || t-out[len(out)-1] > b.tol {
			out = append(out, t)
		}
	}
	b.ts = out
}

// next returns the first breakpoint more than tol after t, or TStop.
func (b *breakSet) next(t float64) float64 {
	i := sort.SearchFloat64s(b.ts, t)
	for i < len(b.ts) && b.ts[i] <= t+b.tol {
		i++
	}
	if i < len(b.ts) {
		return b.ts[i]
	}
	return b.tstop
}

// upcoming reports whether a breakpoint lies within the step (t, t+h].
func (b *breakSet) upcoming(t, h float64) bool {
	return b.next(t) <= t+h+b.tol
}

// engine holds the per-run state of a SWEC integration.
type engine struct {
	sys *stamp.System
	opt Options

	sol   linsolve.Solver
	based bool // sol holds this run's constant stamps as its base
	dim   int
	capI  []float64 // per-capacitor branch currents (trapezoidal state)

	x, xPrev []float64 // accepted states
	hPrev    float64   // last accepted step
	rhs      []float64

	// Per-device history for the eq (5) predictor and eq (9) dV/dt.
	ttV    []float64 // branch voltage at last accepted point
	ttGeq  []float64
	ttDG   []float64 // dGeq/dV at the last accepted point (fused eval)
	fetVGS []float64
	fetVDS []float64
	fetGeq []float64

	brk    *breakSet // source breakpoints (sorted, within run window)
	vScale float64   // circuit voltage scale for relative-error floors
	scan   scanSet   // every node row and device (eqs (10)-(12))

	stats Stats
	rec   *trace.Recorder

	startFlops flop.Snapshot
}

func newEngine(sys *stamp.System, opt Options) (*engine, error) {
	e := &engine{sys: sys, opt: opt, dim: sys.Dim()}
	e.sol = opt.Solver(e.dim, opt.FC)
	x0, err := sys.InitialState(opt.IC)
	if err != nil {
		return nil, err
	}
	e.x = x0
	e.xPrev = append([]float64(nil), x0...)
	e.rhs = make([]float64, e.dim)
	e.capI = make([]float64, len(sys.Capacitors()))
	e.ttV = make([]float64, len(sys.TwoTerms()))
	e.ttGeq = make([]float64, len(sys.TwoTerms()))
	e.ttDG = make([]float64, len(sys.TwoTerms()))
	e.fetVGS = make([]float64, len(sys.FETs()))
	e.fetVDS = make([]float64, len(sys.FETs()))
	e.fetGeq = make([]float64, len(sys.FETs()))
	e.collectBreaks()
	e.initVScale()
	e.scan = fullScanSet(sys)
	e.rec = trace.NewRecorder(sys, opt.RecordCurrents, opt.Probes)
	if opt.FC != nil {
		e.startFlops = opt.FC.Snapshot()
	}
	return e, nil
}

// initVScale estimates the circuit's voltage scale from source waveforms
// sampled across the run window (plus any initial condition), so the
// relative-accuracy floors don't collapse while signals sit near 0 V.
func (e *engine) initVScale() {
	e.vScale = vScaleOf(e.sys, e.opt, e.x)
}

// vScaleOf estimates the circuit's voltage scale for both drivers.
func vScaleOf(sys *stamp.System, opt Options, x []float64) float64 {
	vs := vFloor
	probe := func(w device.Waveform) {
		for k := 0; k <= 32; k++ {
			t := opt.TStart + (opt.TStop-opt.TStart)*float64(k)/32
			if a := math.Abs(w.At(t)); a > vs {
				vs = a
			}
		}
	}
	for _, s := range sys.VSources() {
		probe(s.V.W)
	}
	for _, v := range x {
		if a := math.Abs(v); a > vs {
			vs = a
		}
	}
	return vs
}

// collectBreaks gathers waveform corner times within the run window,
// deduplicated within the span-relative tolerance.
func (e *engine) collectBreaks() {
	e.brk = newBreakSet(e.opt.TStart, e.opt.TStop)
	e.brk.addSources(e.sys)
	e.brk.seal()
}

// chargeCost records one device evaluation against the FLOP counter.
func (e *engine) chargeCost(c device.Cost, evals int) {
	chargeDeviceCost(&e.stats, e.opt.FC, c, evals)
}

// chargeDeviceCost is the engine-independent device-evaluation account.
func chargeDeviceCost(st *Stats, fc *flop.Counter, c device.Cost, evals int) {
	st.DeviceEvals += int64(evals)
	if fc != nil {
		fc.Add(c.Adds * evals)
		fc.Mul(c.Muls * evals)
		fc.Div(c.Divs * evals)
		fc.Func(c.Funcs * evals)
		for i := 0; i < evals; i++ {
			fc.DeviceEval()
		}
	}
}

// seedDeviceState initializes per-device histories from the initial x.
func (e *engine) seedDeviceState() {
	for k, tt := range e.sys.TwoTerms() {
		v := e.sys.Branch(e.x, tt.Elem.A, tt.Elem.B)
		e.ttV[k] = v
		e.ttGeq[k], e.ttDG[k] = e.evalGeqSlope(tt.Elem.Model, v)
	}
	for k, f := range e.sys.FETs() {
		vgs := e.sys.Branch(e.x, f.Elem.G, f.Elem.S)
		vds := e.sys.Branch(e.x, f.Elem.D, f.Elem.S)
		e.fetVGS[k], e.fetVDS[k] = vgs, vds
		e.fetGeq[k] = f.Elem.Model.GeqDS(vgs, vds)
		e.chargeCost(f.Elem.Model.Cost(), 1)
	}
}

// evalGeqSlope evaluates a device's equivalent conductance and (when the
// predictor is active) its voltage slope in one fused model evaluation,
// charging the cost. With the predictor disabled only Geq is needed.
func (e *engine) evalGeqSlope(m device.IV, v float64) (geq, dg float64) {
	if e.opt.NoPredictor {
		geq = device.Geq(m, v)
	} else {
		geq, dg = device.GeqAndSlope(m, v)
	}
	e.chargeCost(m.Cost(), 1)
	return geq, dg
}

// predictGeq returns the eq (5) prediction for two-terminal device k over
// step h, given the eq (9) dV/dt estimate from the last accepted step.
// The dGeq/dV factor was cached by the fused evaluation at the last
// accepted point, so the predictor itself costs no model evaluation.
func (e *engine) predictGeq(k int, m device.IV, h float64) float64 {
	g := e.ttGeq[k]
	if e.opt.NoPredictor || e.hPrev <= 0 {
		return g
	}
	vNow := e.ttV[k]
	vPrevStep := e.prevBranchTT(k)
	dvdt := (vNow - vPrevStep) / e.hPrev
	gp := g + 0.5*h*e.ttDG[k]*dvdt
	if fc := e.opt.FC; fc != nil {
		fc.Mul(3)
		fc.Add(2)
		fc.Div(1)
	}
	// A predictor must never flip the sign of a positive conductance;
	// clamp at a small fraction of the current value.
	if gp < 0.01*g {
		gp = 0.01 * g
	}
	return gp
}

// prevBranchTT reads device k's branch voltage from xPrev.
func (e *engine) prevBranchTT(k int) float64 {
	tt := e.sys.TwoTerms()[k]
	return e.sys.Branch(e.xPrev, tt.Elem.A, tt.Elem.B)
}

// predictGeqFET mirrors predictGeq using a finite-difference Geq' since
// the FET equivalent conductance depends on two controlling voltages.
func (e *engine) predictGeqFET(k int, f stamp.FETRef, h float64) float64 {
	g := e.fetGeq[k]
	if e.opt.NoPredictor || e.hPrev <= 0 {
		return g
	}
	vgsPrev := e.sys.Branch(e.xPrev, f.Elem.G, f.Elem.S)
	vdsPrev := e.sys.Branch(e.xPrev, f.Elem.D, f.Elem.S)
	gPrev := f.Elem.Model.GeqDS(vgsPrev, vdsPrev)
	e.chargeCost(f.Elem.Model.Cost(), 1)
	dgdt := (g - gPrev) / e.hPrev
	gp := g + 0.5*h*dgdt
	if fc := e.opt.FC; fc != nil {
		fc.Mul(2)
		fc.Add(2)
		fc.Div(1)
	}
	if gp < 0 {
		gp = 0
	}
	return gp
}

// assemble stamps (G_pred + C/h) into the solver and builds the RHS
// (C/h)·x + b(t+h). The whole cycle is allocation-free in steady state:
// the solver's compiled pattern handles the matrix side.
func (e *engine) assemble(t, h float64) {
	stampBase(e.sol, e.sys, e.opt.Gmin, &e.based)
	for k, tt := range e.sys.TwoTerms() {
		stamp.Stamp2(e.sol, tt.IA, tt.IB, e.predictGeq(k, tt.Elem.Model, h))
	}
	for k, f := range e.sys.FETs() {
		stamp.Stamp2(e.sol, f.ID, f.IS, e.predictGeqFET(k, f, h))
	}
	// Reactive companions (BE or trapezoidal) and the source RHS.
	for i := range e.rhs {
		e.rhs[i] = 0
	}
	e.sys.StampReactive(e.sol, e.rhs, e.x, e.capI, h, e.trapNow())
	if fc := e.opt.FC; fc != nil {
		fc.Div(e.dim)
		fc.Mul(2 * e.dim)
		fc.Add(e.dim)
	}
	e.sys.StampRHS(t+h, e.rhs)
}

// stampBase leaves sol holding the time-invariant part of an assembly
// of sys: the linear conductances (stamp.System.StampLinearG) and the
// Gmin leak that keeps pure-C or floating-ish nodes nonsingular. Only
// the device conductances and the reactive companions change from one
// assembly to the next, so the first call of a run stamps this part
// after a Reset and marks it as the solver's base (linsolve
// Solver.MarkBase), and later calls restore the base instead of
// restamping it. A solver that kept no base (one still recording its
// first pattern, or rebuilt since) is stamped and marked again.
//
// The base belongs to the run, not to the solver: a solver reused
// across runs (linsolve.SeqCache: vary trials, nanosimd) still holds
// the base of another circuit's run, so each run starts with based
// false and its first assembly restamps.
func stampBase(sol linsolve.Solver, sys *stamp.System, gmin float64, based *bool) {
	if *based && sol.RestoreBase() {
		return
	}
	sol.Reset()
	sys.StampLinearG(sol)
	for i := 0; i < sys.NodeCount(); i++ {
		sol.Add(i, i, gmin)
	}
	sol.MarkBase()
	*based = true
}

// trapNow reports whether this step uses the trapezoidal companion. The
// very first step always runs backward Euler: the capacitor-current
// state starts unknown and one BE step both bootstraps it and
// contributes only O(h²) to the global error (the SPICE "damped start").
func (e *engine) trapNow() bool { return e.opt.Trapezoidal && e.stats.Steps > 0 }

// correctAssemble restamps the system with conductances evaluated at the
// trial state xTrial (corrector pass).
func (e *engine) correctAssemble(t, h float64, xTrial []float64) {
	stampBase(e.sol, e.sys, e.opt.Gmin, &e.based)
	for _, tt := range e.sys.TwoTerms() {
		v := e.sys.Branch(xTrial, tt.Elem.A, tt.Elem.B)
		g := device.Geq(tt.Elem.Model, v)
		e.chargeCost(tt.Elem.Model.Cost(), 1)
		stamp.Stamp2(e.sol, tt.IA, tt.IB, g)
	}
	for _, f := range e.sys.FETs() {
		vgs := e.sys.Branch(xTrial, f.Elem.G, f.Elem.S)
		vds := e.sys.Branch(xTrial, f.Elem.D, f.Elem.S)
		g := f.Elem.Model.GeqDS(vgs, vds)
		e.chargeCost(f.Elem.Model.Cost(), 1)
		stamp.Stamp2(e.sol, f.ID, f.IS, g)
	}
	for i := range e.rhs {
		e.rhs[i] = 0
	}
	e.sys.StampReactive(e.sol, e.rhs, e.x, e.capI, h, e.trapNow())
	if fc := e.opt.FC; fc != nil {
		fc.Div(e.dim)
		fc.Mul(2 * e.dim)
		fc.Add(e.dim)
	}
	e.sys.StampRHS(t+h, e.rhs)
}

// scaledAdder stamps v*s for the C/h contribution.
type scaledAdder struct {
	a stamp.Adder
	s float64
}

// Add implements stamp.Adder.
func (sa scaledAdder) Add(i, j int, v float64) { sa.a.Add(i, j, v*sa.s) }

// localError evaluates the eq (10) proxy: the realized state change
// against the explicit prediction from the previous derivative. The
// denominator is floored at a small fraction of the circuit voltage
// scale so microvolt creep never triggers rejections.
func (e *engine) localError(xNew []float64, h float64) float64 {
	return localErrorOf(e.scan.nodes, e.x, e.xPrev, xNew, e.hPrev, h, e.vScale, e.opt.FC)
}

// scanSet names what one eq (10)-(12) evaluation visits: node rows, and
// devices as indices into the system's TwoTerms and FETs. The monolithic
// engine scans everything; the partitioned engine keeps one set per
// block and scans only the blocks whose rows can have moved
// (partition.go).
type scanSet struct {
	nodes, tts, fets []int
}

// fullScanSet covers every node row and device of sys.
func fullScanSet(sys *stamp.System) scanSet {
	return scanSet{
		nodes: indices(sys.NodeCount()),
		tts:   indices(len(sys.TwoTerms())),
		fets:  indices(len(sys.FETs())),
	}
}

// indices returns 0, 1, ..., n-1.
func indices(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// localErrorOf is the eq (10) proxy over the node rows in rows, shared
// by the monolithic and partitioned drivers. A row frozen in x, xPrev
// and xNew contributes exactly 0, so a caller may leave such rows out.
func localErrorOf(rows []int, x, xPrev, xNew []float64, hPrev, h, vScale float64, fc *flop.Counter) float64 {
	if hPrev <= 0 {
		return 0
	}
	floor := 1e-3 * vScale
	worst := 0.0
	for _, i := range rows {
		dxdt := (x[i] - xPrev[i]) / hPrev
		est := h * dxdt
		actual := xNew[i] - x[i]
		den := math.Max(math.Abs(actual), floor)
		if r := math.Abs(actual-est) / den; r > worst {
			worst = r
		}
	}
	if fc != nil {
		fc.Add(3 * len(rows))
		fc.Mul(len(rows))
		fc.Div(2 * len(rows))
	}
	return worst
}

// stepBound computes the eq (11)-(12) bound for the *next* step from the
// voltage rates realized over the accepted step.
//
// Implementation note (documented in DESIGN.md §5): the literal eq (12)
// node bound ε·C_j/ΣG_j is ε times the node's own RC constant — the
// right cap while the node relaxes at that rate, but pathological when a
// parasitic femtofarad node is quasi-static for the whole run. We apply
// the rate-based equivalent ε·V/|dV/dt|, which *equals* eq (12) when the
// node slews at its RC rate (dV/dt = V·ΣG/C) and relaxes automatically
// when the node is static. Device bounds use the paper's 3·ε·V/α form
// with α the realized controlling-voltage rate (eq 9).
func (e *engine) stepBound(xNew []float64, h float64) float64 {
	return stepBoundOf(e.sys, &e.scan, e.x, xNew, h, e.opt.Eps, e.opt.HMax, e.vScale, e.opt.FC)
}

// stepBoundOf is the eq (11)-(12) bound over the rows and devices of sc,
// shared by the monolithic and partitioned drivers; it reads branch
// voltages only (no model evaluations). A node or device whose voltages
// are equal in x and xNew has rate 0 and bounds nothing, so a caller
// may leave frozen ones out.
func stepBoundOf(sys *stamp.System, sc *scanSet, x, xNew []float64, h, eps, hMax, vScale float64, fc *flop.Counter) float64 {
	bound := hMax
	// vRef keeps the relative-error denominators meaningful near 0 V.
	vRef := 0.05 * vScale
	// Device bounds: 3·ε·|V_dev| / α.
	tts, fets := sys.TwoTerms(), sys.FETs()
	for _, k := range sc.tts {
		tt := tts[k]
		vNew := sys.Branch(xNew, tt.Elem.A, tt.Elem.B)
		vOld := sys.Branch(x, tt.Elem.A, tt.Elem.B)
		alpha := math.Abs(vNew-vOld) / h
		if alpha <= 0 {
			continue
		}
		if b := 3 * eps * math.Max(math.Abs(vNew), vRef) / alpha; b < bound {
			bound = b
		}
	}
	for _, k := range sc.fets {
		f := fets[k]
		vgsNew := sys.Branch(xNew, f.Elem.G, f.Elem.S)
		vgsOld := sys.Branch(x, f.Elem.G, f.Elem.S)
		alpha := math.Abs(vgsNew-vgsOld) / h
		if alpha <= 0 {
			continue
		}
		vds := math.Max(math.Abs(sys.Branch(xNew, f.Elem.D, f.Elem.S)), vRef)
		if b := 3 * eps * vds / alpha; b < bound {
			bound = b
		}
	}
	// Node bounds: ε·|V_j| / |dV_j/dt| (eq 12 in rate form).
	for _, i := range sc.nodes {
		rate := math.Abs(xNew[i]-x[i]) / h
		if rate <= 0 {
			continue
		}
		if b := eps * math.Max(math.Abs(xNew[i]), vRef) / rate; b < bound {
			bound = b
		}
	}
	if fc != nil {
		n := len(sc.tts) + len(sc.fets) + len(sc.nodes)
		fc.Add(2 * n)
		fc.Mul(2 * n)
		fc.Div(2 * n)
	}
	return bound
}

// refreshDeviceState re-evaluates device conductances at the accepted
// state.
func (e *engine) refreshDeviceState(xNew []float64) {
	for k, tt := range e.sys.TwoTerms() {
		v := e.sys.Branch(xNew, tt.Elem.A, tt.Elem.B)
		e.ttV[k] = v
		e.ttGeq[k], e.ttDG[k] = e.evalGeqSlope(tt.Elem.Model, v)
	}
	for k, f := range e.sys.FETs() {
		vgs := e.sys.Branch(xNew, f.Elem.G, f.Elem.S)
		vds := e.sys.Branch(xNew, f.Elem.D, f.Elem.S)
		e.fetVGS[k], e.fetVDS[k] = vgs, vds
		e.fetGeq[k] = f.Elem.Model.GeqDS(vgs, vds)
		e.chargeCost(f.Elem.Model.Cost(), 1)
	}
}

// stepAttempt turns the controller's cruise step into the attempted
// step at time t: truncated to land exactly on the next breakpoint, and
// floored at hMin only when not truncated (a breakpoint landing may be
// arbitrarily short). Shared by both engines' run loops and by the
// compile-time warm pass (compile.go), which must reproduce the first
// attempted step bit-exactly for the warm factorization to match.
func stepAttempt(brk *breakSet, t, hCruise, hMin float64) (h float64, truncated bool) {
	h = hCruise
	limit := brk.next(t)
	if t+h > limit {
		h = limit - t
		truncated = true
	}
	if h < hMin && !truncated {
		h = hMin
	}
	return h, truncated
}

// run integrates from TStart to TStop.
func (e *engine) run() (*Result, error) {
	opt := e.opt
	t := opt.TStart
	// hCruise is the controller's desired step; the attempted step may be
	// truncated to land on breakpoints without poisoning the growth
	// clamp.
	hCruise := opt.HInit
	e.seedDeviceState()
	e.based = false
	e.rec.Sample(t, e.x)
	xNew := make([]float64, e.dim)

	for t < opt.TStop-e.brk.tol {
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, fmt.Errorf("core: transient canceled at t=%g: %w", t, err)
		}
		if e.stats.Steps >= opt.MaxSteps {
			return nil, fmt.Errorf("core: exceeded MaxSteps=%d at t=%g", opt.MaxSteps, t)
		}
		// Land exactly on breakpoints and TStop.
		h, truncated := stepAttempt(e.brk, t, hCruise, opt.HMin)
		e.assemble(t, h)
		if err := e.sol.Solve(e.rhs, xNew); err != nil {
			return nil, fmt.Errorf("core: singular system at t=%g: %w", t, err)
		}
		e.stats.Solves++
		if !allFinite(xNew) {
			return nil, fmt.Errorf("core: non-finite solution at t=%g", t)
		}
		// Optional corrector passes: re-evaluate conductances at the new
		// state and re-solve (still derivative-free).
		for pass := 0; pass < opt.Correctors; pass++ {
			e.correctAssemble(t, h, xNew)
			if err := e.sol.Solve(e.rhs, xNew); err != nil {
				return nil, fmt.Errorf("core: singular corrector system at t=%g: %w", t, err)
			}
			e.stats.Solves++
		}
		// Accept/reject on the eq (10) local-error proxy.
		if !opt.FixedStep {
			if le := e.localError(xNew, h); le > 50*opt.Eps && h > opt.HMin*1.0001 {
				e.stats.Rejected++
				hCruise = math.Max(h/2, opt.HMin)
				continue
			}
		}
		// Accept.
		bound := opt.HMax
		if !opt.FixedStep {
			bound = e.stepBound(xNew, h)
		}
		e.sys.UpdateCapCurrents(e.capI, e.x, xNew, h, e.trapNow())
		copy(e.xPrev, e.x)
		copy(e.x, xNew)
		e.hPrev = h
		t += h
		e.stats.Steps++
		e.refreshDeviceState(e.x)
		e.rec.Sample(t, e.x)
		// Next step: eq (12) bound with doubling clamp. A truncated
		// landing step keeps the cruise size as the growth base.
		if opt.FixedStep {
			hCruise = opt.HInit
		} else {
			base := h
			if truncated && hCruise > h {
				base = hCruise
			}
			hCruise = math.Min(math.Min(bound, 2*base), opt.HMax)
			hCruise = math.Max(hCruise, opt.HMin)
		}
	}
	if opt.FC != nil {
		e.stats.Flops = opt.FC.Snapshot().Sub(e.startFlops)
	}
	return &Result{Waves: e.rec.Set(), Stats: e.stats, X: e.x}, nil
}

// ctxErr reports a pending cancellation on an options context; a nil
// context never cancels. context.Cause surfaces the canceler's reason
// (e.g. "job canceled by DELETE /v1/jobs/{id}") instead of the generic
// context.Canceled.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return context.Cause(ctx)
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ErrNoConvergence is reported by the DC fixed-point when it cannot
// settle; callers fall back to pseudo-transient ramping.
var ErrNoConvergence = errors.New("core: fixed-point iteration did not converge")
