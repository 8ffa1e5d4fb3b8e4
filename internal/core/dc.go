package core

import (
	"context"
	"fmt"
	"math"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/stamp"
	"nanosim/internal/wave"
)

// DCOptions configures SWEC DC analyses.
type DCOptions struct {
	// Gmin is the diagonal leak conductance (default 1e-12 S).
	Gmin float64
	// MaxIter bounds the fixed-point iteration count for an operating
	// point (default 200).
	MaxIter int
	// Tol is the voltage convergence tolerance (default 1e-6 relative +
	// 1e-9 absolute).
	Tol float64
	// Damping in (0, 1] blends successive iterates; smaller is more
	// robust on stiff NDR load lines (default 0.7).
	Damping float64
	// RefineIters is the number of fixed-point refinements per sweep
	// point. 0 keeps the paper's non-iterative sweep: the previous
	// point's conductances are used directly, one solve per point.
	RefineIters int
	// Solver picks the linear backend (default linsolve.Auto).
	Solver linsolve.Factory
	// FC receives FLOP accounting (may be nil).
	FC *flop.Counter
	// Ctx, when non-nil, is polled once per fixed-point iteration
	// (operating point) or sweep point; a canceled context aborts the
	// analysis with context.Cause.
	Ctx context.Context
}

func (o DCOptions) withDefaults() DCOptions {
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.7
	}
	if o.Solver == nil {
		o.Solver = linsolve.Auto
	}
	return o
}

// DCResult reports a SWEC operating point.
type DCResult struct {
	// X is the solved MNA state.
	X []float64
	// Iterations is the fixed-point iteration count used.
	Iterations int
	// Stats carries work counters.
	Stats Stats
}

// dcSolver bundles the shared stamping for DC solves.
type dcSolver struct {
	sys   *stamp.System
	sol   linsolve.Solver
	based bool // sol holds the constant stamps as its base (stampBase)
	opt   DCOptions
	b     []float64
	xNew  []float64 // solveAt's result, overwritten by the next call
}

func newDCSolver(sys *stamp.System, opt DCOptions) *dcSolver {
	return &dcSolver{
		sys:  sys,
		sol:  opt.Solver(sys.Dim(), opt.FC),
		opt:  opt,
		b:    make([]float64, sys.Dim()),
		xNew: make([]float64, sys.Dim()),
	}
}

// stampDeviceG stamps the SWEC equivalent conductances evaluated at
// state x into a: the part of G(x) on top of the constant base
// (stampBase). Device evaluations are charged to fc/stats.
func stampDeviceG(sys *stamp.System, a stamp.Adder, x []float64, fc *flop.Counter, stats *Stats) {
	for _, tt := range sys.TwoTerms() {
		v := sys.Branch(x, tt.Elem.A, tt.Elem.B)
		g := device.Geq(tt.Elem.Model, v)
		chargeDC(fc, tt.Elem.Model.Cost(), stats)
		stamp.Stamp2(a, tt.IA, tt.IB, g)
	}
	for _, f := range sys.FETs() {
		vgs := sys.Branch(x, f.Elem.G, f.Elem.S)
		vds := sys.Branch(x, f.Elem.D, f.Elem.S)
		g := f.Elem.Model.GeqDS(vgs, vds)
		chargeDC(fc, f.Elem.Model.Cost(), stats)
		stamp.Stamp2(a, f.ID, f.IS, g)
	}
}

// solveAt assembles G(x) with SWEC equivalent conductances evaluated at
// state x, and solves for the new state at source time t. The new state
// is returned in the solver's own buffer, valid until the next call:
// callers copy or blend it into their state first.
func (d *dcSolver) solveAt(t float64, x []float64, stats *Stats) ([]float64, error) {
	stampBase(d.sol, d.sys, d.opt.Gmin, &d.based)
	stampDeviceG(d.sys, d.sol, x, d.opt.FC, stats)
	for i := range d.b {
		d.b[i] = 0
	}
	d.sys.StampRHS(t, d.b)
	if err := d.sol.Solve(d.b, d.xNew); err != nil {
		return nil, err
	}
	stats.Solves++
	return d.xNew, nil
}

// refinePoint runs the warm solve plus damped/Aitken refinement on one
// sweep point (see the comment at the call site in Sweep).
//
// Known limitation (the price of staying derivative-free): the Geq fixed
// point converges linearly with ratio |g_diff-g_eq|/(g_eq+g_load), which
// approaches 1 as the load line comes tangent to the NDR region — there
// the refinement stalls no matter the damping, a regime where Newton's
// quadratic convergence (dcop.Sweep) is the right tool. Keep load lines
// a factor ~1.5 steeper than the worst NDR slope, or sweep with finer
// bias steps, for tight per-point KCL.
func (d *dcSolver) refinePoint(x []float64, opt DCOptions, stats *Stats) error {
	charge := func() {
		if opt.FC != nil {
			opt.FC.Iter()
		}
	}
	charge()
	xNew, err := d.solveAt(0, x, stats)
	if err != nil {
		return err
	}
	copy(x, xNew)
	if opt.RefineIters == 0 {
		return nil
	}
	var hist [][]float64
	prev := append([]float64(nil), x...)
	for p := 0; p < opt.RefineIters; p++ {
		charge()
		xNew, err = d.solveAt(0, x, stats)
		if err != nil {
			return err
		}
		// Progressive damping: every 8 passes without convergence the
		// blend halves, restoring contraction when the local map slope
		// is large (steep knees can cycle between basins at the default
		// damping).
		lam := opt.Damping * math.Pow(0.5, float64(p/8))
		for i := range x {
			x[i] = (1-lam)*x[i] + lam*xNew[i]
		}
		if opt.FC != nil {
			opt.FC.Mul(2 * len(x))
			opt.FC.Add(len(x))
		}
		hist = append(hist, append([]float64(nil), x...))
		if len(hist) == 3 {
			aitken(x, hist[0], hist[1], hist[2])
			hist = hist[:0]
			if opt.FC != nil {
				opt.FC.Add(3 * len(x))
				opt.FC.Mul(len(x))
				opt.FC.Div(len(x))
			}
		}
		moved := 0.0
		for i := range x {
			den := 1e-9 + math.Max(math.Abs(x[i]), math.Abs(prev[i]))
			if r := math.Abs(x[i]-prev[i]) / den; r > moved {
				moved = r
			}
		}
		copy(prev, x)
		if moved < opt.Tol {
			break
		}
	}
	// Consistency solve: leave x on the load line of its conductances.
	charge()
	xNew, err = d.solveAt(0, x, stats)
	if err != nil {
		return err
	}
	copy(x, xNew)
	return nil
}

// aitken writes the componentwise Aitken Δ² extrapolation of the
// iterates x0 -> x1 -> x2 into dst, falling back to x2 where the
// denominator degenerates (already-converged components) or where the
// extrapolation overshoots far beyond the recent iterate span (noisy
// differences make Δ² unreliable there).
func aitken(dst, x0, x1, x2 []float64) {
	for i := range dst {
		d1 := x1[i] - x0[i]
		d2 := x2[i] - x1[i]
		den := d2 - d1
		if math.Abs(den) < 1e-300 {
			dst[i] = x2[i]
			continue
		}
		v := x2[i] - d2*d2/den
		span := math.Abs(d1) + math.Abs(d2)
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v-x2[i]) > 4*span {
			v = x2[i]
		}
		dst[i] = v
	}
}

func chargeDC(fc *flop.Counter, c device.Cost, stats *Stats) {
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

// OperatingPoint finds the DC solution by damped fixed-point (Picard)
// iteration on the equivalent conductances: each pass is one *linear*
// solve — the SWEC answer to Newton-Raphson's NDR oscillation.
func OperatingPoint(ckt *circuit.Circuit, opt DCOptions) (*DCResult, error) {
	opt = opt.withDefaults()
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	var start flop.Snapshot
	if opt.FC != nil {
		start = opt.FC.Snapshot()
	}
	d := newDCSolver(sys, opt)
	x := make([]float64, sys.Dim())
	res := &DCResult{}
	for iter := 1; iter <= opt.MaxIter; iter++ {
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, fmt.Errorf("core: operating point canceled at iteration %d: %w", iter, err)
		}
		if opt.FC != nil {
			opt.FC.Iter()
		}
		xNew, err := d.solveAt(0, x, &res.Stats)
		if err != nil {
			return nil, fmt.Errorf("core: DC solve failed at iteration %d: %w", iter, err)
		}
		// Damped update; converged when the relative change of every
		// unknown is below Tol.
		worst := 0.0
		for i := range x {
			upd := opt.Damping*xNew[i] + (1-opt.Damping)*x[i]
			den := 1e-9 + math.Max(math.Abs(upd), math.Abs(x[i]))
			if r := math.Abs(upd-x[i]) / den; r > worst {
				worst = r
			}
			x[i] = upd
		}
		res.Iterations = iter
		if worst <= opt.Tol {
			res.X = x
			if opt.FC != nil {
				res.Stats.Flops = opt.FC.Snapshot().Sub(start)
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("core: operating point: %w after %d iterations", ErrNoConvergence, opt.MaxIter)
}

// SweepResult is a DC transfer sweep outcome.
type SweepResult struct {
	// Points is the swept source value per step.
	Points []float64
	// Waves holds one series per recorded quantity against the swept
	// value on the time axis.
	Waves *wave.Set
	// Stats accumulates work over the whole sweep.
	Stats Stats
}

// Sweep steps the named voltage source from v0 to v1 in n points and
// solves each bias with SWEC conductances warm-started from the previous
// point. With RefineIters == 0 this is the paper's non-iterative DC
// sweep: exactly one linear solve and one conductance evaluation pass
// per point, which is where the Table I FLOP advantage over MLA comes
// from. deviceName, when non-empty, must name a TwoTerm element whose
// branch voltage and current are recorded as "v(dev)" / "i(dev)" — the
// Figure 7 I-V extraction.
func Sweep(ckt *circuit.Circuit, srcName string, v0, v1 float64, n int, deviceName string, opt DCOptions) (*SweepResult, error) {
	opt = opt.withDefaults()
	if n < 2 {
		return nil, fmt.Errorf("core: sweep needs >= 2 points, got %d", n)
	}
	if v1 == v0 {
		return nil, fmt.Errorf("core: sweep has zero span at %g", v0)
	}
	src, ok := ckt.Element(srcName).(*circuit.VSource)
	if !ok || src == nil {
		return nil, fmt.Errorf("core: sweep source %q is not a voltage source", srcName)
	}
	origW := src.W
	defer func() { src.W = origW }()

	var dev *circuit.TwoTerm
	if deviceName != "" {
		dev, ok = ckt.Element(deviceName).(*circuit.TwoTerm)
		if !ok || dev == nil {
			return nil, fmt.Errorf("core: sweep device %q is not a two-terminal device", deviceName)
		}
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	var start flop.Snapshot
	if opt.FC != nil {
		start = opt.FC.Snapshot()
	}
	d := newDCSolver(sys, opt)

	res := &SweepResult{Waves: wave.NewSet()}
	vDev := wave.NewSeries("v(dev)", n)
	iDev := wave.NewSeries("i(dev)", n)
	var outSeries []*wave.Series
	names := sys.Circuit().NodeNames()
	for _, nn := range names {
		outSeries = append(outSeries, wave.NewSeries("v("+nn+")", n))
	}
	x := make([]float64, sys.Dim())
	for k := 0; k < n; k++ {
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, fmt.Errorf("core: sweep canceled at point %d: %w", k, err)
		}
		bias := v0 + (v1-v0)*float64(k)/float64(n-1)
		src.W = device.DC(bias)
		res.Points = append(res.Points, bias)
		// Pass 0 is the paper's warm-started non-iterative solve.
		// Refinement passes (up to RefineIters) are *damped*
		// (x <- (1-λ)x + λ·F(x)): the raw Geq fixed point has map slope
		// ~ -(g_diff-g_eq)/(g_eq+g_load), which exceeds 1 in magnitude
		// on steep NDR load lines; damping with λ < 1 restores
		// contraction for slopes up to (2-λ)/λ. Every third refinement
		// the last three iterates feed a guarded Aitken Δ² extrapolation
		// (the damped iteration converges linearly, so Δ² jumps near its
		// limit). The loop exits early once the iterate moves less than
		// Tol; a final consistency solve leaves x = F(x) exactly.
		if err := d.refinePoint(x, opt, &res.Stats); err != nil {
			return nil, fmt.Errorf("core: sweep failed at %s=%g: %w", srcName, bias, err)
		}
		// Record against the swept bias as the horizontal axis; a tiny
		// epsilon keeps reversed sweeps monotone for the wave package.
		axis := bias
		if v1 < v0 {
			axis = -bias
		}
		for i, nn := range names {
			outSeries[i].MustAppend(axis, sys.Voltage(x, sys.Circuit().Node(nn)))
		}
		if dev != nil {
			v := sys.Branch(x, dev.A, dev.B)
			vDev.MustAppend(axis, v)
			iDev.MustAppend(axis, dev.Model.I(v))
			chargeDC(opt.FC, dev.Model.Cost(), &res.Stats)
		}
	}
	for _, s := range outSeries {
		if err := res.Waves.Add(s); err != nil {
			return nil, err
		}
	}
	if dev != nil {
		res.Waves.Add(vDev)
		res.Waves.Add(iDev)
	}
	if opt.FC != nil {
		res.Stats.Flops = opt.FC.Snapshot().Sub(start)
	}
	return res, nil
}
