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

// peakValleyOf probes a two-terminal model's NDR window (used by the MLA
// limiter; defined here so both baseline files share it).
func peakValleyOf(tt stamp.TwoTermRef) (vp, ip, vv, iv float64, ok bool) {
	if vp, ip, vv, iv, ok = device.PeakValley(tt.Elem.Model, 1.5); ok {
		return
	}
	return device.PeakValley(tt.Elem.Model, 6)
}

// PWL runs the ACES-style engine of paper ref [2]: every nonlinear
// two-terminal device is replaced by a piecewise-linear table; each time
// point solves the *linear* circuit of the active segments, re-selecting
// segments until the solution lands inside the segments it was solved
// with (segment iteration instead of Newton iteration). FETs keep their
// Newton companions — ref [2] targets two-terminal nanodevices.
//
// The segment slope is the PWL differential conductance of paper Fig
// 3(a): negative across NDR segments, which is why this engine still
// needs current-stepping-style damping (segment hopping limits) where
// SWEC needs nothing.
func PWL(ckt *circuit.Circuit, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	e := &pwlEngine{sys: sys, opt: opt, dim: sys.Dim()}
	e.sol = opt.Solver(e.dim, opt.FC)
	ct := spmat.NewTriplet(e.dim, e.dim)
	sys.StampC(ct)
	e.cmat = ct.ToCSR()
	x0, err := sys.InitialState(opt.IC)
	if err != nil {
		return nil, err
	}
	e.x = x0
	e.rhs = make([]float64, e.dim)
	e.work = make([]float64, e.dim)
	e.breaks = breakTimes(sys, opt.TStart, opt.TStop)
	e.rec = trace.NewRecorder(sys, opt.RecordCurrents, nil)
	// Tabulate every nonlinear device once.
	for _, tt := range sys.TwoTerms() {
		tab, err := device.SampleIV(tt.Elem.Model, -opt.SegRange, opt.SegRange, opt.Segments)
		if err != nil {
			return nil, fmt.Errorf("tran: tabulating %s: %w", tt.Elem.Name(), err)
		}
		e.tables = append(e.tables, tab)
		e.segments = append(e.segments, tab.Segment(sys.Branch(x0, tt.Elem.A, tt.Elem.B)))
	}
	if opt.FC != nil {
		e.startFlops = opt.FC.Snapshot()
	}
	return e.run()
}

type pwlEngine struct {
	sys  *stamp.System
	opt  Options
	sol  linsolve.Solver
	cmat *spmat.CSR
	dim  int

	x    []float64
	rhs  []float64
	work []float64

	tables   []*device.Table
	segments []int

	breaks     []float64
	stats      Stats
	rec        *trace.Recorder
	startFlops flop.Snapshot
}

// assemble stamps the active-segment companions plus FET Newton
// companions about state xc.
func (e *pwlEngine) assemble(t, h float64, xc []float64) {
	e.sol.Reset()
	e.sys.StampLinearG(e.sol)
	for i := 0; i < e.sys.NodeCount(); i++ {
		e.sol.Add(i, i, e.opt.Gmin)
	}
	e.cmat.MulVec(e.x, e.work, e.opt.FC)
	for i := range e.rhs {
		e.rhs[i] = e.work[i] / h
	}
	if fc := e.opt.FC; fc != nil {
		fc.Div(e.dim)
	}
	e.sys.StampRHS(t+h, e.rhs)
	sc := scaledAdder{a: e.sol, s: 1 / h}
	e.sys.StampC(sc)
	// Active-segment Norton companions: i = g_seg·v + j_seg.
	for k, tt := range e.sys.TwoTerms() {
		tab := e.tables[k]
		seg := e.segments[k]
		v0, _ := tab.SegmentRange(seg)
		g := tab.G(0.5 * (v0 + segmentEnd(tab, seg)))
		j := tab.I(v0) - g*v0
		chargeCost(e.opt.FC, tab.Cost(), &e.stats)
		stamp.Stamp2(e.sol, tt.IA, tt.IB, g)
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
	// FETs: same Newton companion as the NR engine.
	for _, f := range e.sys.FETs() {
		vgs := e.sys.Branch(xc, f.Elem.G, f.Elem.S)
		vds := e.sys.Branch(xc, f.Elem.D, f.Elem.S)
		ids := f.Elem.Model.IDS(vgs, vds)
		gm := f.Elem.Model.GM(vgs, vds)
		gds := f.Elem.Model.GDS(vgs, vds)
		chargeCost(e.opt.FC, f.Elem.Model.Cost(), &e.stats)
		j := ids - gm*vgs - gds*vds
		if fc := e.opt.FC; fc != nil {
			fc.Mul(2)
			fc.Add(2)
		}
		stamp.Stamp2(e.sol, f.ID, f.IS, gds)
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
			e.sol.Add(f.IS, f.IS, gm)
			e.rhs[f.IS] += j
		}
	}
}

func segmentEnd(t *device.Table, seg int) float64 {
	_, v1 := t.SegmentRange(seg)
	return v1
}

// solvePoint iterates segment selection (and FET linearization) until
// the solution is consistent with the segments it was computed from.
func (e *pwlEngine) solvePoint(t, h float64) (bool, error) {
	xc := append([]float64(nil), e.x...)
	xNew := make([]float64, e.dim)
	for iter := 0; iter < e.opt.MaxNRIter; iter++ {
		e.stats.NRIters++
		if fc := e.opt.FC; fc != nil {
			fc.Iter()
		}
		e.assemble(t, h, xc)
		if err := e.sol.Solve(e.rhs, xNew); err != nil {
			return false, fmt.Errorf("tran: singular PWL system at t=%g: %w", t, err)
		}
		e.stats.Solves++
		if !allFinite(xNew) {
			return false, nil
		}
		// Re-select segments; hop at most one segment per iteration
		// (the current-stepping-style damping ACES needs in NDR).
		changed := false
		for k, tt := range e.sys.TwoTerms() {
			v := e.sys.Branch(xNew, tt.Elem.A, tt.Elem.B)
			want := e.tables[k].Segment(v)
			cur := e.segments[k]
			if want != cur {
				if want > cur {
					e.segments[k] = cur + 1
				} else {
					e.segments[k] = cur - 1
				}
				changed = true
			}
		}
		fetMoved := maxUpdate(xNew, xc, e.opt.AbsTol, e.opt.RelTol) >= 1 && len(e.sys.FETs()) > 0
		copy(xc, xNew)
		if !changed && !fetMoved {
			copy(e.x, xNew)
			return true, nil
		}
	}
	copy(e.x, xc)
	return false, nil
}

func (e *pwlEngine) run() (*Result, error) {
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
		prev := append([]float64(nil), e.x...)
		conv, err := e.solvePoint(t, h)
		if err != nil {
			return nil, err
		}
		if !conv && h > opt.HMin*1.0001 {
			copy(e.x, prev)
			e.stats.Rejected++
			hCruise = math.Max(h/4, opt.HMin)
			continue
		}
		if !conv {
			e.stats.NonConverged++
		}
		t += h
		e.stats.Steps++
		e.rec.Sample(t, e.x)
		base := h
		if truncated && hCruise > h {
			base = hCruise
		}
		hCruise = math.Min(2*base, opt.HMax)
	}
	if opt.FC != nil {
		e.stats.Flops = opt.FC.Snapshot().Sub(e.startFlops)
	}
	return &Result{Waves: e.rec.Set(), Stats: e.stats, X: e.x}, nil
}
