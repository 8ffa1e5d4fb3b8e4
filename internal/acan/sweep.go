package acan

// Parallel frequency sweep.
//
// Frequency points are independent given the linearization, but the
// sparse complex solver is not history-free: every numeric refactor
// reuses the pivot order of the matrix that was full-factored first.
// The sweep therefore pins a canonical protocol, at every worker count
// including one:
//
//   - each worker warms a private solver on point 0's matrix (one full
//     factorization — the canonical pivot order), then serves its
//     contiguous chunk of points with numeric refactors;
//   - a point whose refactor drifts full-factors its own matrix (exactly
//     what the serial state machine did) and the worker re-warms on
//     point 0 before the next point, so no point ever sees a pivot
//     order inherited from another point's drift.
//
// Identical-value refactorization is bitwise identical to the full
// factorization it replays (the elimination replays the same operations
// in the same order), so every point's solution is a pure function of
// its own matrix and point 0's — bit-identical at any worker count and
// to the pre-parallel serial sweep.
//
// Every point goes through acWorker.point, one refactor and one solve.
// Decks with noise sources then solve all noise columns of the point
// as one multi-RHS call (linsolve.ComplexMultiRHS), which is
// bit-identical per column to the scalar solve loop it replaces.

import (
	"fmt"
	"math"
	"sync"

	"nanosim/internal/linsolve"
	"nanosim/internal/stamp"
)

// sweeper is the read-only sweep plan shared by all workers plus the
// disjointly-written result arrays.
type sweeper struct {
	sys    *stamp.System
	opt    *Options
	ttG    []float64
	fets   []fetSmallSignal
	cols   [][]float64
	freqs  []float64
	nNodes int
	dim    int
	bAC    []complex128 // AC excitation (frequency-independent)
	nb     []complex128 // concatenated noise columns, one RHS per source

	xs    []complex128 // point p's solution rows at [p*nNodes, (p+1)*nNodes)
	noise []float64    // point p's onoise rows, same layout (nil without noise)
	errs  []error      // per-point failure, scanned in point order
}

// newSweeper precomputes the shared inputs.
func newSweeper(sys *stamp.System, opt *Options, ttG []float64, fets []fetSmallSignal, cols [][]float64, freqs []float64) *sweeper {
	s := &sweeper{
		sys: sys, opt: opt, ttG: ttG, fets: fets, cols: cols, freqs: freqs,
		nNodes: sys.NodeCount(), dim: sys.Dim(),
		xs:   make([]complex128, len(freqs)*sys.NodeCount()),
		errs: make([]error, len(freqs)),
	}
	s.bAC = make([]complex128, s.dim)
	sys.StampACRHS(s.bAC)
	if len(cols) > 0 {
		s.noise = make([]float64, len(freqs)*s.nNodes)
		s.nb = make([]complex128, len(cols)*s.dim)
		for c, col := range cols {
			for i, v := range col {
				s.nb[c*s.dim+i] = complex(v, 0)
			}
		}
	}
	return s
}

// assembleInto stamps G + jωC plus the small-signal device stamps, in
// the one stamp order every point records.
func (s *sweeper) assembleInto(a stamp.CAdder, omega float64) {
	s.sys.StampACLinear(a, omega)
	for i := 0; i < s.nNodes; i++ {
		a.Add(i, i, complex(s.opt.Gmin, 0))
	}
	for k, tt := range s.sys.TwoTerms() {
		stamp.Stamp2C(a, tt.IA, tt.IB, complex(s.ttG[k], 0))
	}
	for _, fs := range s.fets {
		stampFET(a, fs)
	}
}

// run sweeps all points across the requested workers, folds the worker
// partials into st, and returns the first per-point error in point
// order, or nil.
func (s *sweeper) run(workers int, st *Stats) error {
	points := len(s.freqs)
	if workers > points {
		workers = points
	}
	if workers < 1 {
		workers = 1
	}
	ws := make([]*acWorker, workers)
	if workers == 1 {
		ws[0] = &acWorker{s: s}
		ws[0].runChunk(0, points)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*points/workers, (w+1)*points/workers
			ws[w] = &acWorker{s: s}
			wg.Add(1)
			go func(aw *acWorker, lo, hi int) {
				defer wg.Done()
				aw.runChunk(lo, hi)
			}(ws[w], lo, hi)
		}
		wg.Wait()
	}
	// Fold worker partials in worker order. Solves is a commutative
	// integer sum (independent of the chunking); Solve additionally
	// counts the per-worker warm-up factorizations, so it depends on the
	// worker count by construction.
	for _, aw := range ws {
		st.Solves += aw.solves
		if aw.sol != nil {
			aw.collectSolveStats()
		}
		st.Solve.Accumulate(aw.solveStats)
	}
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// acWorker owns one solver (plus its scratch) and a contiguous chunk.
type acWorker struct {
	s      *sweeper
	sol    linsolve.ComplexSolver
	rewarm bool // a drift replaced the pivot order; re-warm before the next point

	x       []complex128 // dim solve target
	scratch []complex128 // warm-up solve target
	nx      []complex128 // noise multi-RHS solutions, dim*len(cols)
	acc     []float64    // per-node Σ 2σ²|H|²

	solves     int64
	solveStats linsolve.SolveStats
}

// collectSolveStats folds the current solver's amortization record into
// the worker partial (also called before a solver is dropped on rewarm).
func (w *acWorker) collectSolveStats() {
	if r, ok := w.sol.(linsolve.Refactorable); ok {
		w.solveStats.Accumulate(r.SolveStats())
	}
	w.sol = nil
}

// fullFactors reads the backend's full-factorization count, or -1 when
// the backend does not expose it (then drift is invisible and the
// canonical-order protocol degrades to the old serial behavior).
func fullFactors(sol linsolve.ComplexSolver) int {
	if r, ok := sol.(linsolve.Refactorable); ok {
		return r.SolveStats().FullFactor
	}
	return -1
}

// ensure puts the worker's solver into the canonical factor state: a
// private solver whose pivot order comes from point 0's matrix. Reports
// false (recording the failure at point p) when point 0 is singular.
func (w *acWorker) ensure(p int) bool {
	if w.sol != nil && !w.rewarm {
		return true
	}
	s := w.s
	if w.sol != nil {
		w.collectSolveStats()
	}
	w.sol = s.opt.Solver(s.dim, s.opt.FC)
	w.rewarm = false
	if w.scratch == nil {
		w.scratch = make([]complex128, s.dim)
		w.x = make([]complex128, s.dim)
	}
	w.sol.Reset()
	s.assembleInto(w.sol, 2*math.Pi*s.freqs[0])
	if err := w.sol.Solve(s.bAC, w.scratch); err != nil {
		s.errs[p] = fmt.Errorf("acan: singular AC system at %g Hz: %w", s.freqs[0], err)
		return false
	}
	return true
}

// runChunk sweeps points [lo, hi). A failed point stops the chunk — the
// sweep is aborting anyway, and every recorded error is scanned in
// point order afterwards.
func (w *acWorker) runChunk(lo, hi int) {
	s := w.s
	for p := lo; p < hi; p++ {
		if err := ctxErr(s.opt.Ctx); err != nil {
			s.errs[p] = fmt.Errorf("acan: sweep canceled at %g Hz: %w", s.freqs[p], err)
			return
		}
		if !w.ensure(p) || !w.point(p) {
			return
		}
	}
}

// point serves one frequency point: numeric refactor under the
// canonical order, full factorization of its own matrix on drift
// (flagging the rewarm), then the AC solve and the noise columns.
func (w *acWorker) point(p int) bool {
	s := w.s
	omega := 2 * math.Pi * s.freqs[p]
	w.sol.Reset()
	s.assembleInto(w.sol, omega)
	ff0 := fullFactors(w.sol)
	if err := w.sol.Solve(s.bAC, w.x); err != nil {
		s.errs[p] = fmt.Errorf("acan: singular AC system at %g Hz: %w", s.freqs[p], err)
		return false
	}
	w.solves++
	if ff0 >= 0 && fullFactors(w.sol) != ff0 {
		w.rewarm = true
	}
	copy(s.xs[p*s.nNodes:(p+1)*s.nNodes], w.x[:s.nNodes])
	if len(s.cols) > 0 {
		return w.noisePoint(p)
	}
	return true
}

// noisePoint solves every noise column against the point's
// factorization — one multi-RHS call when the backend supports it, the
// scalar column loop otherwise — and stores sqrt(Σ 2σ²|H|²) per node.
func (w *acWorker) noisePoint(p int) bool {
	s := w.s
	k := len(s.cols)
	if w.acc == nil {
		w.acc = make([]float64, s.nNodes)
	}
	for i := range w.acc {
		w.acc[i] = 0
	}
	if mr, ok := w.sol.(linsolve.ComplexMultiRHS); ok {
		if w.nx == nil {
			w.nx = make([]complex128, k*s.dim)
		}
		if err := mr.SolveMulti(s.nb, w.nx, k); err != nil {
			s.errs[p] = fmt.Errorf("acan: noise transfer at %g Hz: %w", s.freqs[p], err)
			return false
		}
		w.solves += int64(k)
		for c := 0; c < k; c++ {
			col := w.nx[c*s.dim:]
			for row := 0; row < s.nNodes; row++ {
				re, im := real(col[row]), imag(col[row])
				w.acc[row] += 2 * (re*re + im*im)
			}
		}
	} else {
		for c := 0; c < k; c++ {
			if err := w.sol.Solve(s.nb[c*s.dim:(c+1)*s.dim], w.x); err != nil {
				s.errs[p] = fmt.Errorf("acan: noise transfer at %g Hz: %w", s.freqs[p], err)
				return false
			}
			w.solves++
			for row := 0; row < s.nNodes; row++ {
				re, im := real(w.x[row]), imag(w.x[row])
				w.acc[row] += 2 * (re*re + im*im)
			}
		}
	}
	for row := 0; row < s.nNodes; row++ {
		s.noise[p*s.nNodes+row] = math.Sqrt(w.acc[row])
	}
	return true
}
