package tran

import (
	"fmt"
	"math"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/spmat"
	"nanosim/internal/stamp"
	"nanosim/internal/trace"
)

// nrEngine is the SPICE3-style backward-Euler + Newton-Raphson core,
// parameterized by an optional per-iteration update limiter (the hook
// the MLA engine plugs into).
type nrEngine struct {
	sys  *stamp.System
	opt  Options
	sol  linsolve.Solver
	cmat *spmat.CSR
	dim  int

	x      []float64 // accepted state
	xk     []float64 // Newton iterate
	xNew   []float64 // raw Newton solution scratch
	xPrev2 []float64 // iterate k-1 for oscillation detection
	rhs    []float64
	work   []float64

	breaks []float64
	stats  Stats
	rec    *trace.Recorder

	// limiter, when non-nil, may damp the Newton update; it receives the
	// previous iterate and the raw solution and returns the accepted
	// iterate (MLA's RTD voltage limiting).
	limiter func(prev, raw []float64) []float64
	// onOscillation, when non-nil, is informed when the Newton iteration
	// is detected cycling (MLA cuts the time step in response).
	oscillating bool

	startFlops flop.Snapshot
}

// NR runs the SPICE3-style transient: full Newton-Raphson with
// differential conductances at every time point. On circuits with NDR
// devices expect Stats.NonConverged > 0 and possibly wrong-branch
// solutions — reproducing the paper's Figure 8(c) behaviour is the
// point of this engine.
func NR(ckt *circuit.Circuit, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	e, err := newNREngine(sys, opt)
	if err != nil {
		return nil, err
	}
	return e.run()
}

func newNREngine(sys *stamp.System, opt Options) (*nrEngine, error) {
	e := &nrEngine{sys: sys, opt: opt, dim: sys.Dim()}
	e.sol = opt.Solver(e.dim, opt.FC)
	ct := spmat.NewTriplet(e.dim, e.dim)
	sys.StampC(ct)
	e.cmat = ct.ToCSR()
	x0, err := sys.InitialState(opt.IC)
	if err != nil {
		return nil, err
	}
	e.x = x0
	e.xk = make([]float64, e.dim)
	e.xNew = make([]float64, e.dim)
	e.xPrev2 = make([]float64, e.dim)
	e.rhs = make([]float64, e.dim)
	e.work = make([]float64, e.dim)
	e.breaks = breakTimes(sys, opt.TStart, opt.TStop)
	e.rec = trace.NewRecorder(sys, opt.RecordCurrents, nil)
	if opt.FC != nil {
		e.startFlops = opt.FC.Snapshot()
	}
	return e, nil
}

// assembleNewton stamps the Jacobian (G_lin + C/h + dI/dV companions)
// and RHS for one Newton iteration about iterate xk.
func (e *nrEngine) assembleNewton(t, h float64, xPrev []float64) {
	e.sol.Reset()
	e.sys.StampLinearG(e.sol)
	for i := 0; i < e.sys.NodeCount(); i++ {
		e.sol.Add(i, i, e.opt.Gmin)
	}
	// RHS base: (C/h)·x_prev + b(t+h).
	e.cmat.MulVec(xPrev, e.work, e.opt.FC)
	for i := range e.rhs {
		e.rhs[i] = e.work[i] / h
	}
	if fc := e.opt.FC; fc != nil {
		fc.Div(e.dim)
	}
	e.sys.StampRHS(t+h, e.rhs)
	// C/h into the matrix.
	sc := scaledAdder{a: e.sol, s: 1 / h}
	e.sys.StampC(sc)
	// Nonlinear companions at xk with *differential* conductance.
	for _, tt := range e.sys.TwoTerms() {
		v := e.sys.Branch(e.xk, tt.Elem.A, tt.Elem.B)
		i, g := device.IAndG(tt.Elem.Model, v)
		// One fused model evaluation computes I and G together (they
		// share the transcendental subexpressions), matching the FLOP
		// accounting convention in DESIGN.md.
		chargeCost(e.opt.FC, tt.Elem.Model.Cost(), &e.stats)
		stamp.Stamp2(e.sol, tt.IA, tt.IB, g)
		j := i - g*v
		if fc := e.opt.FC; fc != nil {
			fc.Mul(1)
			fc.Add(1)
		}
		if tt.IA >= 0 {
			e.rhs[tt.IA] -= j
		}
		if tt.IB >= 0 {
			e.rhs[tt.IB] += j
		}
	}
	for _, f := range e.sys.FETs() {
		vgs := e.sys.Branch(e.xk, f.Elem.G, f.Elem.S)
		vds := e.sys.Branch(e.xk, f.Elem.D, f.Elem.S)
		ids := f.Elem.Model.IDS(vgs, vds)
		gm := f.Elem.Model.GM(vgs, vds)
		gds := f.Elem.Model.GDS(vgs, vds)
		chargeCost(e.opt.FC, f.Elem.Model.Cost(), &e.stats)
		// Linearized: i = gm·vgs + gds·vds + J.
		j := ids - gm*vgs - gds*vds
		if fc := e.opt.FC; fc != nil {
			fc.Mul(2)
			fc.Add(2)
		}
		stamp.Stamp2(e.sol, f.ID, f.IS, gds)
		// Transconductance stamps: current at D depends on V(G)-V(S).
		if f.ID >= 0 {
			if f.IG >= 0 {
				e.sol.Add(f.ID, f.IG, gm)
			}
			if f.IS >= 0 {
				e.sol.Add(f.ID, f.IS, -gm)
			}
			e.rhs[f.ID] -= j
		}
		if f.IS >= 0 {
			if f.IG >= 0 {
				e.sol.Add(f.IS, f.IG, -gm)
			}
			if f.IS >= 0 {
				e.sol.Add(f.IS, f.IS, gm)
			}
			e.rhs[f.IS] += j
		}
	}
}

// scaledAdder stamps v*s (shared with the PWL engine).
type scaledAdder struct {
	a stamp.Adder
	s float64
}

// Add implements stamp.Adder.
func (sa scaledAdder) Add(i, j int, v float64) { sa.a.Add(i, j, v*sa.s) }

// solvePoint runs the Newton loop for the time point t+h starting from
// the accepted state. It returns the converged flag.
func (e *nrEngine) solvePoint(t, h float64) (bool, error) {
	copy(e.xk, e.x)
	xNew := e.xNew
	havePrev2 := false
	e.oscillating = false
	for iter := 0; iter < e.opt.MaxNRIter; iter++ {
		e.stats.NRIters++
		if fc := e.opt.FC; fc != nil {
			fc.Iter()
		}
		e.assembleNewton(t, h, e.x)
		if err := e.sol.Solve(e.rhs, xNew); err != nil {
			return false, fmt.Errorf("tran: singular Newton system at t=%g: %w", t, err)
		}
		e.stats.Solves++
		if !allFinite(xNew) {
			return false, nil
		}
		if e.limiter != nil {
			xNew = e.limiter(e.xk, xNew)
		}
		upd := maxUpdate(xNew, e.xk, e.opt.AbsTol, e.opt.RelTol)
		// Oscillation detection: iterate k+1 returns to iterate k-1.
		if havePrev2 {
			back := maxUpdate(xNew, e.xPrev2, e.opt.AbsTol, e.opt.RelTol)
			if back < 1 && upd >= 1 {
				e.oscillating = true
			}
		}
		copy(e.xPrev2, e.xk)
		havePrev2 = true
		copy(e.xk, xNew)
		if upd < 1 && iter+1 >= e.opt.MinNRIter {
			return true, nil
		}
	}
	return false, nil
}

// run integrates the full window.
func (e *nrEngine) run() (*Result, error) {
	opt := e.opt
	t := opt.TStart
	hCruise := opt.HInit
	e.rec.Sample(t, e.x)
	for t < opt.TStop-1e-18 {
		if e.stats.Steps >= opt.MaxSteps {
			return nil, fmt.Errorf("tran: exceeded MaxSteps=%d at t=%g", opt.MaxSteps, t)
		}
		h := hCruise
		limit := nextBreak(e.breaks, t, opt.TStop)
		truncated := false
		if t+h > limit {
			h = limit - t
			truncated = true
		}
		conv, err := e.solvePoint(t, h)
		if err != nil {
			return nil, err
		}
		if !conv && h > opt.HMin*1.0001 {
			// SPICE behaviour: cut the step and retry the point.
			e.stats.Rejected++
			hCruise = math.Max(h/8, opt.HMin)
			continue
		}
		if !conv {
			// At minimum step: accept the unconverged iterate — this is
			// the false-convergence signature the paper attributes to
			// SPICE3 on NDR circuits.
			e.stats.NonConverged++
		}
		copy(e.x, e.xk)
		t += h
		e.stats.Steps++
		e.rec.Sample(t, e.x)
		// Iteration-count step control (SPICE2 heuristic).
		base := h
		if truncated && hCruise > h {
			base = hCruise
		}
		switch {
		case conv && e.lastIterCheap():
			hCruise = math.Min(2*base, opt.HMax)
		case !conv || e.oscillating:
			hCruise = math.Max(base/2, opt.HMin)
		default:
			hCruise = math.Min(base, opt.HMax)
		}
	}
	if opt.FC != nil {
		e.stats.Flops = opt.FC.Snapshot().Sub(e.startFlops)
	}
	return &Result{Waves: e.rec.Set(), Stats: e.stats, X: e.x}, nil
}

// lastIterCheap reports whether the most recent point converged quickly;
// approximated by the running average iteration count.
func (e *nrEngine) lastIterCheap() bool {
	if e.stats.Steps == 0 {
		return true
	}
	return float64(e.stats.NRIters)/float64(e.stats.Steps+e.stats.Rejected+1) < 8
}
