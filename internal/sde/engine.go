package sde

import (
	"context"
	"fmt"
	"math"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/randx"
	"nanosim/internal/spmat"
	"nanosim/internal/stamp"
	"nanosim/internal/trace"
	"nanosim/internal/wave"
)

// Options configures an Euler-Maruyama circuit transient (paper §4.2).
// Noise enters through sources whose NoiseSigma is positive.
type Options struct {
	// TStop is the end time (required).
	TStop float64
	// Steps is the number of uniform EM steps (default 1000). EM uses a
	// fixed grid: stochastic integrals are grid-defined objects (paper
	// eq 15) and adaptive stepping would bias them.
	Steps int
	// Seed drives the Wiener increments; the same seed reproduces the
	// same path exactly.
	Seed uint64
	// Explicit selects the paper's eq (18) explicit update. It requires
	// an invertible C (every node needs capacitance and the circuit may
	// not contain voltage sources or inductors). The default
	// drift-implicit form (C + hG)x' = Cx + h·b + B·ΔW handles full MNA
	// and reduces to backward Euler when no noise is present.
	Explicit bool
	// Gmin is the diagonal leak (default 1e-12).
	Gmin float64
	// Solver picks the linear backend (default linsolve.Auto).
	Solver linsolve.Factory
	// FC receives FLOP accounting (may be nil).
	FC *flop.Counter
	// IC maps node names to initial voltages.
	IC map[string]float64
	// RecordCurrents adds voltage-source branch currents to the output.
	RecordCurrents bool
	// Ctx, when non-nil, is polled once per step; a canceled context
	// aborts the path with context.Cause.
	Ctx context.Context
}

func (o Options) withDefaults() (Options, error) {
	if o.TStop <= 0 {
		return o, fmt.Errorf("sde: TStop must be positive, got %g", o.TStop)
	}
	if o.Steps <= 0 {
		o.Steps = 1000
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.Solver == nil {
		o.Solver = linsolve.Auto
	}
	return o, nil
}

// Result is one stochastic path through the circuit.
type Result struct {
	// Waves holds the recorded series.
	Waves *wave.Set
	// X is the final state.
	X []float64
	// NoiseSources is the number of stochastic inputs found.
	NoiseSources int
}

// Transient integrates one Euler-Maruyama path. Nonlinear devices are
// linearized with SWEC equivalent conductances — this pairing of the two
// halves of the paper is what makes the whole a "statistical simulator".
func Transient(ckt *circuit.Circuit, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	return run(sys, opt)
}

func run(sys *stamp.System, opt Options) (*Result, error) {
	dim := sys.Dim()
	sol := opt.Solver(dim, opt.FC)
	ct := spmat.NewTriplet(dim, dim)
	sys.StampC(ct)
	cmat := ct.ToCSR()
	noiseCols := sys.NoiseColumns()

	x, err := sys.InitialState(opt.IC)
	if err != nil {
		return nil, err
	}
	var cinv *explicitC
	if opt.Explicit {
		cinv, err = newExplicitC(sys, opt)
		if err != nil {
			return nil, err
		}
	}

	h := opt.TStop / float64(opt.Steps)
	stream := randx.New(opt.Seed)
	dW := make([]float64, len(noiseCols))
	rhs := make([]float64, dim)
	work := make([]float64, dim)
	xNew := make([]float64, dim)
	rec := trace.NewRecorder(sys, opt.RecordCurrents, nil)
	rec.Sample(0, x)
	sqh := math.Sqrt(h)

	for n := 0; n < opt.Steps; n++ {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return nil, fmt.Errorf("sde: path canceled at step %d: %w", n, context.Cause(opt.Ctx))
		}
		t := float64(n) * h
		for k := range dW {
			dW[k] = sqh * stream.Norm()
		}
		if opt.Explicit {
			// x' = x + h·C^-1(-G·x + b(t)) + C^-1·B·ΔW  (paper eq 18).
			if err := cinv.step(sys, x, xNew, t, h, dW, noiseCols, opt); err != nil {
				return nil, err
			}
		} else {
			// Drift-implicit: (C/h + G)x' = (C/h)x + b(t+h) + B·ΔW/h.
			sol.Reset()
			sys.StampLinearG(sol)
			for i := 0; i < sys.NodeCount(); i++ {
				sol.Add(i, i, opt.Gmin)
			}
			stampGeq(sys, sol, x, opt.FC)
			sc := scaledAdder{a: sol, s: 1 / h}
			sys.StampC(sc)
			cmat.MulVec(x, work, opt.FC)
			for i := range rhs {
				rhs[i] = work[i] / h
			}
			sys.StampRHS(t+h, rhs)
			for k, col := range noiseCols {
				for i, v := range col {
					if v != 0 {
						rhs[i] += v * dW[k] / h
					}
				}
			}
			if fc := opt.FC; fc != nil {
				fc.Div(dim)
				fc.Mul(len(noiseCols) * 2)
			}
			if err := sol.Solve(rhs, xNew); err != nil {
				return nil, fmt.Errorf("sde: singular system at step %d: %w", n, err)
			}
		}
		if !finite(xNew) {
			return nil, fmt.Errorf("sde: non-finite state at step %d (t=%g); try implicit mode or smaller steps", n, t)
		}
		copy(x, xNew)
		rec.Sample(t+h, x)
	}
	return &Result{Waves: rec.Set(), X: x, NoiseSources: len(noiseCols)}, nil
}

// stampGeq stamps SWEC equivalent conductances at state x.
func stampGeq(sys *stamp.System, sol stamp.Adder, x []float64, fc *flop.Counter) {
	for _, tt := range sys.TwoTerms() {
		v := sys.Branch(x, tt.Elem.A, tt.Elem.B)
		g := device.Geq(tt.Elem.Model, v)
		charge(fc, tt.Elem.Model.Cost())
		stamp.Stamp2(sol, tt.IA, tt.IB, g)
	}
	for _, f := range sys.FETs() {
		vgs := sys.Branch(x, f.Elem.G, f.Elem.S)
		vds := sys.Branch(x, f.Elem.D, f.Elem.S)
		g := f.Elem.Model.GeqDS(vgs, vds)
		charge(fc, f.Elem.Model.Cost())
		stamp.Stamp2(sol, f.ID, f.IS, g)
	}
}

func charge(fc *flop.Counter, c device.Cost) {
	if fc == nil {
		return
	}
	fc.Add(c.Adds)
	fc.Mul(c.Muls)
	fc.Div(c.Divs)
	fc.Func(c.Funcs)
	fc.DeviceEval()
}

// scaledAdder stamps v*s.
type scaledAdder struct {
	a stamp.Adder
	s float64
}

// Add implements stamp.Adder.
func (sa scaledAdder) Add(i, j int, v float64) { sa.a.Add(i, j, v*sa.s) }

// gStamper accumulates the per-step G matrix with deterministic
// summation order: the first assembly records the stamp sequence into a
// map-backed Triplet, which is compiled into a Pattern; later assemblies
// replay positionally into compiled slots and the product runs in fixed
// CSR row order. Determinism matters here — the Options contract
// promises the same seed reproduces the same path bit for bit, which a
// map-iteration product would break.
type gStamper struct {
	n     int
	t     *spmat.Triplet
	seq   []int64
	pat   *spmat.Pattern
	slots []int32
	cur   int
}

func newGStamper(n int) *gStamper { return &gStamper{n: n, t: spmat.NewTriplet(n, n)} }

// Add implements stamp.Adder.
func (g *gStamper) Add(i, j int, v float64) {
	if g.pat != nil {
		if g.cur < len(g.seq) && g.seq[g.cur] == spmat.Key(i, j) {
			g.pat.AddSlot(g.slots[g.cur], v)
			g.cur++
			return
		}
		// Stamp order diverged (cannot happen for a fixed circuit, but
		// stay correct): spill back to the map accumulator.
		g.t = spmat.NewTriplet(g.n, g.n)
		g.pat.EachNonzero(func(i2, j2 int, v2 float64) { g.t.Add(i2, j2, v2) })
		g.seq = g.seq[:g.cur]
		g.pat, g.slots = nil, nil
	}
	g.t.Add(i, j, v)
	g.seq = append(g.seq, spmat.Key(i, j))
}

// reset clears values for the next assembly, keeping the compiled
// structure.
func (g *gStamper) reset() {
	if g.pat != nil {
		g.pat.Zero()
		g.cur = 0
		return
	}
	g.t.Zero()
	g.seq = g.seq[:0]
}

// mulVec computes y = G*x, compiling the pattern on first use.
func (g *gStamper) mulVec(x, y []float64, fc *flop.Counter) {
	if g.pat == nil {
		pat, slots := spmat.CompilePattern(g.n, g.seq)
		g.t.Each(func(i, j int, v float64) { pat.SetAt(i, j, v) })
		g.pat, g.slots = pat, slots
		g.t = nil
		g.cur = len(g.seq)
	}
	g.pat.MulVec(x, y, fc)
}

// explicitC factors the capacitance matrix once for the explicit update
// and keeps the per-step assembly scratch so stepping stays cheap.
type explicitC struct {
	sol linsolve.Solver
	gt  *gStamper
	r   []float64
	b   []float64
	dx  []float64
}

// newExplicitC validates the circuit for explicit EM and factors C.
func newExplicitC(sys *stamp.System, opt Options) (*explicitC, error) {
	if len(sys.VSources()) > 0 {
		return nil, fmt.Errorf("sde: explicit EM cannot handle voltage sources (the C matrix is singular on their branch rows); use implicit mode or drive with current sources")
	}
	inds, _ := sys.Inductors()
	if len(inds) > 0 {
		return nil, fmt.Errorf("sde: explicit EM cannot handle inductors; use implicit mode")
	}
	sol := opt.Solver(sys.Dim(), opt.FC)
	sys.StampC(sol)
	// Probe the factorization once by solving against a unit vector.
	probe := make([]float64, sys.Dim())
	if sys.Dim() > 0 {
		probe[0] = 1
	}
	tmp := make([]float64, sys.Dim())
	if err := sol.Solve(probe, tmp); err != nil {
		return nil, fmt.Errorf("sde: explicit EM needs capacitance on every node: %w", err)
	}
	return &explicitC{
		sol: sol,
		gt:  newGStamper(sys.Dim()),
		r:   make([]float64, sys.Dim()),
		b:   make([]float64, sys.Dim()),
		dx:  make([]float64, sys.Dim()),
	}, nil
}

// step performs one explicit EM update.
func (ec *explicitC) step(sys *stamp.System, x, xNew []float64, t, h float64, dW []float64, noiseCols [][]float64, opt Options) error {
	// r = -G·x + b(t), with G including Geq companions at x.
	gt := ec.gt
	gt.reset()
	sys.StampLinearG(gt)
	for i := 0; i < sys.NodeCount(); i++ {
		gt.Add(i, i, opt.Gmin)
	}
	stampGeq(sys, gt, x, opt.FC)
	r := ec.r
	gt.mulVec(x, r, opt.FC)
	for i := range r {
		r[i] = -r[i]
	}
	b := ec.b
	for i := range b {
		b[i] = 0
	}
	sys.StampRHS(t, b)
	for i := range r {
		r[i] = h * (r[i] + b[i])
	}
	for k, col := range noiseCols {
		for i, v := range col {
			if v != 0 {
				r[i] += v * dW[k]
			}
		}
	}
	// xNew = x + C^-1 r (the C factorization is reused across all steps:
	// nothing is restamped, so the solver skips refactorization).
	dx := ec.dx
	if err := ec.sol.Solve(r, dx); err != nil {
		return fmt.Errorf("sde: explicit step solve: %w", err)
	}
	for i := range xNew {
		xNew[i] = x[i] + dx[i]
	}
	if fc := opt.FC; fc != nil {
		fc.Add(sys.Dim() * 3)
		fc.Mul(sys.Dim())
	}
	return nil
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
