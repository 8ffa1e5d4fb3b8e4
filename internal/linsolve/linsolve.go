package linsolve

import (
	"nanosim/internal/flop"
	"nanosim/internal/mat"
	"nanosim/internal/spmat"
)

// Solver accumulates a square system A*x = b and solves it. Reset clears
// A (and b) for the next time step; implementations keep their storage.
//
// MarkBase and RestoreBase let an engine stamp the coefficients that do
// not change between assemblies once and return to them instead of
// restamping: Reset, stamp the constant part, MarkBase; later,
// RestoreBase and stamp only the varying part. A restored base holds
// exactly the values Reset followed by the same stamps would, bit for
// bit, and the stamps after it land where they would after those.
type Solver interface {
	// N returns the system dimension.
	N() int
	// Reset clears all stamped coefficients.
	Reset()
	// Add accumulates v into A[i][j].
	Add(i, j int, v float64)
	// MarkBase snapshots the coefficients stamped since the last Reset
	// as the solver's base, replacing any earlier one. A sparse solver
	// still recording its first pattern keeps no base.
	MarkBase()
	// RestoreBase returns A to the base and reports true. It reports
	// false and changes nothing when there is no base: none was kept,
	// or the stamp pattern was rebuilt since it was marked.
	RestoreBase() bool
	// At reports the accumulated A[i][j] (diagnostics and tests).
	At(i, j int) float64
	// Solve factors A and solves A*x = b, writing into x.
	// b is not modified. Returns mat.ErrSingular/spmat.ErrSingular
	// equivalents on numerically singular systems.
	Solve(b, x []float64) error
}

// SolveStats reports how a backend amortized its factorization work.
type SolveStats struct {
	// FullFactor counts complete (symbolic + numeric) factorizations,
	// including pivot-drift fallbacks after the first.
	FullFactor int
	// NumericRefactor counts pattern-reusing numeric-only refactorizations.
	NumericRefactor int
	// PatternRebuild counts stamp-sequence divergences that forced the
	// compiled pattern to be re-recorded.
	PatternRebuild int
	// Reused counts solves that skipped factorization entirely because
	// nothing was restamped since the previous Solve.
	Reused int
}

// Accumulate folds another stats record into s (batch reductions).
func (s *SolveStats) Accumulate(o SolveStats) {
	s.FullFactor += o.FullFactor
	s.NumericRefactor += o.NumericRefactor
	s.PatternRebuild += o.PatternRebuild
	s.Reused += o.Reused
}

// Refactorable is the capability interface backends implement when they
// reuse factorization structure across Solve calls; engines and tests use
// it to verify the hot path engaged.
type Refactorable interface {
	SolveStats() SolveStats
}

// orderCarrying marks backends whose factorization reuses a pivot order
// chosen by an earlier full factorization, so later solves depend on
// which matrix was factored first. The dense backend recomputes its
// pivots from scratch on every refactor and is therefore history-free.
type orderCarrying interface {
	carriesPivotOrder() bool
}

// CarriesPivotOrder reports whether s reuses a previously chosen pivot
// order across Solve calls. Batch runners that share one solver across
// many independent simulations (internal/vary) use this to decide when a
// drift-triggered refactorization replaced the pivot order mid-batch and
// the solver must be re-warmed to keep results independent of batch
// partitioning.
func CarriesPivotOrder(s Solver) bool {
	o, ok := s.(orderCarrying)
	return ok && o.carriesPivotOrder()
}

// Factory builds a Solver of dimension n with work charged to fc.
// Engines receive a Factory so simulations pick the backend.
type Factory func(n int, fc *flop.Counter) Solver

// dense adapts mat.Dense + LU to the Solver interface.
type dense struct {
	a     *mat.Dense
	work  *mat.Dense
	base  *mat.Dense // MarkBase snapshot of a (nil until marked)
	f     *mat.LU
	fc    *flop.Counter
	dirty bool
	stats SolveStats
}

// NewDense returns a dense-backend solver; the right default below the
// Auto crossover.
func NewDense(n int, fc *flop.Counter) Solver {
	return &dense{a: mat.NewDense(n, n), work: mat.NewDense(n, n), fc: fc, dirty: true}
}

func (d *dense) N() int { return d.a.Rows() }
func (d *dense) Reset() {
	d.a.Zero()
	d.dirty = true
}
func (d *dense) Add(i, j int, v float64) {
	d.a.Add(i, j, v)
	d.dirty = true
}
func (d *dense) MarkBase() {
	if d.base == nil {
		d.base = mat.NewDense(d.a.Rows(), d.a.Rows())
	}
	d.base.CopyFrom(d.a)
}
func (d *dense) RestoreBase() bool {
	if d.base == nil {
		return false
	}
	d.a.CopyFrom(d.base)
	d.dirty = true
	return true
}
func (d *dense) At(i, j int) float64 { return d.a.At(i, j) }
func (d *dense) Solve(b, x []float64) error {
	if d.dirty || d.f == nil {
		d.work.CopyFrom(d.a)
		if d.f == nil {
			f, err := mat.FactorInPlace(d.work, d.fc)
			if err != nil {
				return err
			}
			d.f = f
		} else if err := d.f.Refactor(d.work, d.fc); err != nil {
			return err
		}
		d.stats.FullFactor++
		d.dirty = false
	} else {
		d.stats.Reused++
	}
	d.f.Solve(b, x, d.fc)
	return nil
}
func (d *dense) SolveStats() SolveStats { return d.stats }

// sparseOf adapts spmat to the Solver shape with a compiled stamp
// pattern and symbolic-reuse factorization, generic over the scalar
// domain: the float64 instantiation is the Solver backend of every
// transient/DC engine, the complex128 instantiation backs the AC
// small-signal sweep (same pattern across frequency points, numeric
// refactor per point).
//
// Lifecycle: the first assembly runs in recording mode — stamps go into
// a map-backed Triplet while the Add sequence is logged. The first Solve
// compiles the sequence into a Pattern (slot table), runs the full
// symbolic+numeric factorization on it, and prepares the reuse program.
// Every later assembly verifies each Add positionally against the
// recorded sequence and lands in a compiled slot: zero map operations,
// zero allocations. If the stamp order ever diverges (a different
// circuit configuration on the same solver), the pattern is re-recorded.
type sparseOf[T spmat.Scalar] struct {
	n  int
	fc *flop.Counter

	t   *spmat.TripletOf[T] // recording mode accumulator (nil once compiled)
	seq []int64             // recorded Add-coordinate sequence

	pat    *spmat.PatternOf[T] // compiled pattern (nil while recording)
	slots  []int32             // per-sequence-position slot into pat
	cursor int                 // next expected position during compiled assembly

	// MarkBase snapshot: pat's values and the cursor when it was taken.
	// A pattern rebuild (decompile) drops it.
	base       []T
	baseCursor int
	hasBase    bool

	lu    *spmat.LUOf[T]
	dirty bool
	stats SolveStats
}

// NewSparse returns a sparse-backend solver for large circuits.
func NewSparse(n int, fc *flop.Counter) Solver {
	return newSparseOf[float64](n, fc)
}

func newSparseOf[T spmat.Scalar](n int, fc *flop.Counter) *sparseOf[T] {
	return &sparseOf[T]{n: n, fc: fc, t: spmat.NewTripletOf[T](n, n), dirty: true}
}

func (s *sparseOf[T]) N() int { return s.n }

func (s *sparseOf[T]) Reset() {
	s.dirty = true
	if s.pat != nil {
		s.pat.Zero()
		s.cursor = 0
		return
	}
	s.t.Zero()
	s.seq = s.seq[:0]
}

func (s *sparseOf[T]) Add(i, j int, v T) {
	s.dirty = true
	if s.pat != nil {
		// Compiled fast path: positional slot lookup, no map, no alloc.
		if s.cursor < len(s.seq) && s.seq[s.cursor] == spmat.Key(i, j) {
			s.pat.AddSlot(s.slots[s.cursor], v)
			s.cursor++
			return
		}
		s.decompile()
	}
	s.t.Add(i, j, v)
	s.seq = append(s.seq, spmat.Key(i, j))
}

// MarkBase implements Solver: it copies the compiled slot values and
// the sequence cursor. While recording there is no slot table to copy.
func (s *sparseOf[T]) MarkBase() {
	s.hasBase = s.pat != nil
	if s.hasBase {
		s.base = s.pat.SaveValues(s.base)
		s.baseCursor = s.cursor
	}
}

// RestoreBase implements Solver. Each slot accumulates its stamps in
// sequence order, so the snapshot taken after the first baseCursor
// stamps is exactly what replaying them after a Reset would leave.
func (s *sparseOf[T]) RestoreBase() bool {
	if !s.hasBase {
		return false
	}
	s.pat.LoadValues(s.base)
	s.cursor = s.baseCursor
	s.dirty = true
	return true
}

// decompile falls back to recording mode after a stamp-sequence
// divergence: the values accumulated so far are spilled into the map
// accumulator and the sequence prefix that did match is kept, so the
// next Solve re-records and re-compiles the pattern. The kept prefix is
// copied rather than resliced: solvers cloned from a SparseTemplate
// share one sequence backing array, and appending into a truncated
// shared slice would corrupt their recorded sequences.
func (s *sparseOf[T]) decompile() {
	s.stats.PatternRebuild++
	s.hasBase = false
	t := spmat.NewTripletOf[T](s.n, s.n)
	s.pat.EachNonzero(func(i, j int, v T) { t.Add(i, j, v) })
	s.t = t
	s.seq = append([]int64(nil), s.seq[:s.cursor]...)
	s.pat, s.slots, s.lu, s.cursor = nil, nil, nil, 0
}

func (s *sparseOf[T]) At(i, j int) T {
	if s.pat != nil {
		return s.pat.At(i, j)
	}
	return s.t.At(i, j)
}

func (s *sparseOf[T]) Solve(b, x []T) error {
	if err := s.ensureFactored(); err != nil {
		return err
	}
	s.lu.Solve(b, x, s.fc)
	return nil
}

// ensureFactored brings the factorization in sync with the assembled
// matrix: compile on first use, numeric refactor when dirty, full
// factorization on pivot drift. Shared by Solve and SolveMulti so the
// multi-RHS path reuses the exact same state machine.
func (s *sparseOf[T]) ensureFactored() error {
	if s.pat == nil {
		// First assembly (or post-divergence): compile the recorded
		// sequence, scatter the accumulated values in, full-factor.
		pat, slots := spmat.CompilePatternOf[T](s.n, s.seq)
		s.t.Each(func(i, j int, v T) { pat.SetAt(i, j, v) })
		s.pat, s.slots = pat, slots
		s.t = nil
		s.cursor = len(s.seq)
		s.lu = nil
	}
	if s.dirty || s.lu == nil {
		if s.lu != nil {
			err := s.lu.RefactorNumeric(s.pat, s.fc)
			if err == nil {
				s.stats.NumericRefactor++
				s.dirty = false
				return nil
			}
			if err != spmat.ErrPivotDrift && err != spmat.ErrSingular {
				return err
			}
			// Fall through to a fresh full factorization: the reused
			// pivot order went numerically bad.
		}
		lu, err := spmat.FactorPattern(s.pat, s.fc)
		if err != nil {
			// Drop the old LU: its numeric content may be partially
			// overwritten by the failed refactor, and keeping it around
			// invites a retry path that trusts stale structure.
			s.lu = nil
			return err
		}
		lu.PrepareReuse()
		s.lu = lu
		s.stats.FullFactor++
		s.dirty = false
	} else {
		s.stats.Reused++
	}
	return nil
}

func (s *sparseOf[T]) SolveStats() SolveStats { return s.stats }

// carriesPivotOrder implements orderCarrying: the sparse backend keeps
// the min-degree pivot order of its last full factorization.
func (s *sparseOf[T]) carriesPivotOrder() bool { return true }

// ComplexSolver is the complex-valued counterpart of Solver, the linear
// backend of the AC small-signal analysis. The sparse implementation
// shares the compiled-pattern + symbolic-LU machinery with the real
// path through the spmat generics: across an AC frequency sweep the
// stamp sequence is identical at every point, so after the first solve
// each frequency costs one allocation-free numeric refactor.
type ComplexSolver interface {
	// N returns the system dimension.
	N() int
	// Reset clears all stamped coefficients.
	Reset()
	// Add accumulates v into A[i][j].
	Add(i, j int, v complex128)
	// At reports the accumulated A[i][j] (diagnostics and tests).
	At(i, j int) complex128
	// Solve factors A and solves A*x = b, writing into x.
	Solve(b, x []complex128) error
}

// NewSparseComplex returns the sparse complex-valued solver.
func NewSparseComplex(n int, fc *flop.Counter) ComplexSolver {
	return newSparseOf[complex128](n, fc)
}

// ComplexFactory builds a ComplexSolver of dimension n; the AC engine
// receives one so tests can substitute instrumented backends.
type ComplexFactory func(n int, fc *flop.Counter) ComplexSolver

// AutoCrossover is the dense/sparse crossover dimension used by Auto,
// re-measured against the compiled-pattern sparse path by
// BenchmarkSolverStep (bench_test.go) and `nanobench -solverbench`
// (which records the measurement in BENCH_solver.json). On circuit-shaped
// (near-tridiagonal) systems the steady-state sparse refactor is O(nnz)
// while the dense refactor is O(n^3), so sparse now wins at every
// measured size — far below the 160 calibrated against the old
// factor-from-scratch path. Dense is kept for the smallest systems,
// where fully coupled matrices (the sparse path's worst case, ~25%
// slower) are plausible and partial pivoting is the more robust choice.
const AutoCrossover = 8

// Auto picks the dense backend for small systems and sparse above the
// crossover.
func Auto(n int, fc *flop.Counter) Solver {
	if n <= AutoCrossover {
		return NewDense(n, fc)
	}
	return NewSparse(n, fc)
}
