// Package acan implements .ac small-signal frequency analysis plus the
// output-noise spectrum, on top of the same compiled-pattern sparse
// machinery as the transient engines — instantiated at complex128.
//
// The analysis linearizes every nonlinear device at the SWEC DC
// operating point and solves the phasor system
//
//	(G + jωC)·X(ω) = B
//
// across a DEC/OCT/LIN frequency grid, where G carries the small-signal
// (differential) conductances g = dI/dV = Geq + V·dGeq/dV — the same
// cached Geq/dGeq pair the SWEC predictor evaluates — and C is exactly
// the reactive matrix of the time-domain companion models. Because the
// stamp sequence is identical at every frequency (only the jωC values
// change), the complex solver compiles its slot pattern once, runs one
// symbolic analysis, and serves every later grid point with an
// allocation-free numeric refactor.
//
// On the same factorization the engine computes the output noise
// spectral density: every NOISE=-annotated source (the SDE engine's
// stochastic inputs, paper §4) contributes |H_k(jω)|² to
//
//	S_out(ω) = Σ_k 2σ_k²·|H_k(jω)|²   [V²/Hz, one-sided]
//
// where H_k is the transfer from source k's injection point to the
// output node. The factor 2 makes the result the one-sided PSD of the
// Euler-Maruyama engine's stationary output, directly comparable to
// sde.PSDWelch estimates; onoise(n) reports sqrt(S_out) in V/√Hz.
package acan

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/stamp"
	"nanosim/internal/wave"
)

// Grid spacings of the .ac card.
const (
	GridDec = "dec" // Points per decade, geometric
	GridOct = "oct" // Points per octave, geometric
	GridLin = "lin" // Points total, linear
)

// Options configures an AC sweep.
type Options struct {
	// Grid is the spacing keyword: GridDec (default), GridOct or GridLin.
	Grid string
	// Points is the grid density: per decade (dec), per octave (oct) or
	// total (lin). Default 10 (dec/oct) / 101 (lin).
	Points int
	// FStart and FStop bound the sweep in hertz; both must be > 0.
	FStart, FStop float64
	// Gmin is the diagonal leak conductance stamped on every node row,
	// matching the DC analyses (default 1e-12 S).
	Gmin float64
	// DC configures the operating-point solve the devices are linearized
	// around; its Solver/FC/Ctx default to this Options' fields.
	DC core.DCOptions
	// Solver picks the complex linear backend (default
	// linsolve.NewSparseComplex).
	Solver linsolve.ComplexFactory
	// FC receives FLOP accounting (may be nil).
	FC *flop.Counter
	// Ctx, when non-nil, is polled once per frequency point; a canceled
	// context aborts the sweep with context.Cause.
	Ctx context.Context
	// Workers bounds how many goroutines sweep frequency points
	// concurrently (contiguous chunks, each worker warming a private
	// solver on point 0's matrix so every point reuses the same canonical
	// pivot order; see sweep.go). <= 1 sweeps on the calling goroutine;
	// results are bit-identical at any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Grid == "" {
		o.Grid = GridDec
	}
	if o.Points <= 0 {
		if o.Grid == GridLin {
			o.Points = 101
		} else {
			o.Points = 10
		}
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.Solver == nil {
		o.Solver = linsolve.NewSparseComplex
	}
	if o.DC.FC == nil {
		o.DC.FC = o.FC
	}
	if o.DC.Ctx == nil {
		o.DC.Ctx = o.Ctx
	}
	return o
}

// Stats reports the work of one AC sweep.
type Stats struct {
	// Points is the number of frequency grid points solved.
	Points int
	// Solves counts complex linear solves (one per point, plus one per
	// noise source per point).
	Solves int64
	// DeviceEvals counts small-signal linearization evaluations.
	DeviceEvals int64
	// Solve reports how the complex backends amortized factorization
	// work: warm-up full factorizations (one per sweep worker) then
	// numeric refactors per point. Unlike the waveforms, which are
	// bit-identical at any Workers count, this record includes the
	// per-worker warm-up and therefore depends on Workers.
	Solve linsolve.SolveStats
	// Flops is the attributable snapshot.
	Flops flop.Snapshot
}

// Result is an AC sweep outcome.
type Result struct {
	// Freqs is the frequency grid in hertz.
	Freqs []float64
	// Waves holds, per node n, the series "vm(n)" (magnitude),
	// "vp(n)" (phase, degrees), "vdb(n)" (magnitude in dB, floored at
	// VdbFloor) and — when the circuit has NOISE= sources —
	// "onoise(n)" (output noise spectral density, V/√Hz), all against
	// frequency (Waves.Axis == "f").
	Waves *wave.Set
	// OP is the DC operating point the devices were linearized at.
	OP []float64
	// OPIterations reports the fixed-point iterations of the OP solve.
	OPIterations int
	// NoiseSources counts the NOISE=-annotated sources feeding onoise.
	NoiseSources int
	// Stats carries work counters.
	Stats Stats
}

// VdbFloor is the decibel clamp for zero-magnitude responses: a node
// with no AC response reads VdbFloor instead of -Inf, keeping the dB
// series finite for CSV/JSON emitters and golden records.
const VdbFloor = -400.0

// fetSmallSignal is the cached linearization of one transistor.
type fetSmallSignal struct {
	ref     stamp.FETRef
	gm, gds float64
}

// AC runs the small-signal sweep. The circuit is not modified; the
// operating point is solved with the SWEC fixed-point iteration (no
// Newton, as everywhere else in this simulator).
func AC(ckt *circuit.Circuit, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if opt.FStart <= 0 || opt.FStop <= 0 {
		return nil, fmt.Errorf("acan: frequency bounds must be > 0, got [%g, %g]", opt.FStart, opt.FStop)
	}
	if opt.FStop < opt.FStart {
		return nil, fmt.Errorf("acan: fstop %g below fstart %g", opt.FStop, opt.FStart)
	}
	switch opt.Grid {
	case GridDec, GridOct, GridLin:
	default:
		return nil, fmt.Errorf("acan: unknown grid %q (want dec, oct or lin)", opt.Grid)
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	var start flop.Snapshot
	if opt.FC != nil {
		start = opt.FC.Snapshot()
	}

	// 1. DC operating point: the bias every device linearizes around.
	op, err := core.OperatingPoint(ckt, opt.DC)
	if err != nil {
		return nil, fmt.Errorf("acan: operating point: %w", err)
	}

	res := &Result{OP: op.X, OPIterations: op.Iterations}

	// 2. Frequency-independent small-signal conductances, evaluated once:
	// for two-terminal devices g = dI/dV at the bias, recovered from the
	// same Geq/dGeq pair the SWEC predictor caches (g = Geq + V·dGeq/dV);
	// for MOSFETs the (gm, gds) pair at the bias.
	ttG := make([]float64, len(sys.TwoTerms()))
	for k, tt := range sys.TwoTerms() {
		v := sys.Branch(op.X, tt.Elem.A, tt.Elem.B)
		geq, dgeq := device.GeqAndSlope(tt.Elem.Model, v)
		ttG[k] = geq + v*dgeq
		chargeEval(opt.FC, tt.Elem.Model.Cost(), &res.Stats)
	}
	fets := make([]fetSmallSignal, len(sys.FETs()))
	for k, f := range sys.FETs() {
		vgs := sys.Branch(op.X, f.Elem.G, f.Elem.S)
		vds := sys.Branch(op.X, f.Elem.D, f.Elem.S)
		fets[k] = fetSmallSignal{ref: f, gm: f.Elem.Model.GM(vgs, vds), gds: f.Elem.Model.GDS(vgs, vds)}
		chargeEval(opt.FC, f.Elem.Model.Cost(), &res.Stats)
	}

	// 3. Noise columns: one RHS per stochastic source.
	noiseCols := sys.NoiseColumns()
	res.NoiseSources = len(noiseCols)
	if !sys.HasACSources() && len(noiseCols) == 0 {
		// A fully quiet deck would sweep (G+jωC)X = 0 and report a flat
		// floor — almost always a forgotten "AC mag" group, so fail loud.
		// Noise-only decks are legitimate: vm is zero but onoise is not.
		return nil, fmt.Errorf("acan: no source carries an AC excitation (AC mag [phase]) or NOISE= spec; the sweep would be identically zero")
	}

	freqs := grid(opt)
	res.Freqs = freqs
	res.Stats.Points = len(freqs)

	sw := newSweeper(sys, &opt, ttG, fets, noiseCols, freqs)

	// Output series, one group per node.
	nNodes := sys.NodeCount()
	vm := make([]*wave.Series, nNodes)
	vp := make([]*wave.Series, nNodes)
	vdb := make([]*wave.Series, nNodes)
	var onoise []*wave.Series
	set := wave.NewSet()
	set.Axis = "f"
	for row := 0; row < nNodes; row++ {
		name := ckt.NodeName(circuit.NodeID(row + 1))
		vm[row] = wave.NewSeries("vm("+name+")", len(freqs))
		vp[row] = wave.NewSeries("vp("+name+")", len(freqs))
		vdb[row] = wave.NewSeries("vdb("+name+")", len(freqs))
	}
	if len(noiseCols) > 0 {
		onoise = make([]*wave.Series, nNodes)
		for row := 0; row < nNodes; row++ {
			name := ckt.NodeName(circuit.NodeID(row + 1))
			onoise[row] = wave.NewSeries("onoise("+name+")", len(freqs))
		}
	}

	// Sweep the grid — across workers when Workers > 1 (see sweep.go) —
	// then emit the series serially in point order from the per-point
	// solutions.
	if err := sw.run(opt.Workers, &res.Stats); err != nil {
		return nil, err
	}
	for pi, f := range freqs {
		for row := 0; row < nNodes; row++ {
			xv := sw.xs[pi*nNodes+row]
			mag := cmplx.Abs(xv)
			vm[row].MustAppend(f, mag)
			vp[row].MustAppend(f, cmplx.Phase(xv)*180/math.Pi)
			db := VdbFloor
			if mag > 0 {
				db = math.Max(20*math.Log10(mag), VdbFloor)
			}
			vdb[row].MustAppend(f, db)
			if onoise != nil {
				onoise[row].MustAppend(f, sw.noise[pi*nNodes+row])
			}
		}
	}

	for row := 0; row < nNodes; row++ {
		for _, s := range []*wave.Series{vm[row], vp[row], vdb[row]} {
			if err := set.Add(s); err != nil {
				return nil, err
			}
		}
		if onoise != nil {
			if err := set.Add(onoise[row]); err != nil {
				return nil, err
			}
		}
	}
	res.Waves = set
	if opt.FC != nil {
		res.Stats.Flops = opt.FC.Snapshot().Sub(start)
	}
	return res, nil
}

// stampFET stamps the small-signal transistor model: gds across
// drain-source plus the gm-controlled current source pattern.
func stampFET(a stamp.CAdder, fs fetSmallSignal) {
	f := fs.ref
	stamp.Stamp2C(a, f.ID, f.IS, complex(fs.gds, 0))
	gm := complex(fs.gm, 0)
	if f.ID >= 0 {
		if f.IG >= 0 {
			a.Add(f.ID, f.IG, gm)
		}
		if f.IS >= 0 {
			a.Add(f.ID, f.IS, -gm)
		}
	}
	if f.IS >= 0 {
		if f.IG >= 0 {
			a.Add(f.IS, f.IG, -gm)
		}
		a.Add(f.IS, f.IS, gm)
	}
}

// grid builds the frequency points. Geometric grids run from FStart in
// steps of 10^(1/Points) (dec) or 2^(1/Points) (oct) up to FStop with a
// relative tolerance, so fstart·(ratio)^k sequences that land exactly on
// fstop include it despite rounding.
func grid(opt Options) []float64 {
	if opt.Grid == GridLin {
		n := opt.Points
		if n < 2 || opt.FStop == opt.FStart {
			return []float64{opt.FStart}
		}
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = opt.FStart + (opt.FStop-opt.FStart)*float64(i)/float64(n-1)
		}
		return out
	}
	base := 10.0
	if opt.Grid == GridOct {
		base = 2
	}
	ratio := math.Pow(base, 1/float64(opt.Points))
	var out []float64
	limit := opt.FStop * (1 + 1e-9)
	for k := 0; ; k++ {
		f := opt.FStart * math.Pow(ratio, float64(k))
		if f > limit {
			break
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		out = []float64{opt.FStart}
	}
	return out
}

// chargeEval books one linearization evaluation.
func chargeEval(fc *flop.Counter, c device.Cost, stats *Stats) {
	stats.DeviceEvals++
	if fc == nil {
		return
	}
	fc.Add(c.Adds)
	fc.Mul(c.Muls)
	fc.Div(c.Divs)
	fc.Func(c.Funcs)
	fc.DeviceEval()
}

// ctxErr mirrors core.ctxErr for the sweep loop.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}
