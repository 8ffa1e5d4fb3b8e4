package spmat

import (
	"fmt"

	"nanosim/internal/flop"
)

// This file is the multi-RHS face of the sparse LU: ONE factorization,
// k right-hand sides. Its consumer is the AC noise analysis, which
// solves every noise source's injection column against one frequency
// point's factorization. RHS vectors are column-major (vector c
// occupies b[c*n:(c+1)*n]) while the internal scratch interleaves the
// right-hand sides (yM[i*k+c]) so the structural walk over L/U touches
// each row's index data once per k vectors.
//
// Determinism contract: for every right-hand side c the sequence of
// floating-point operations is IDENTICAL to the scalar Solve on that
// vector alone (same order, same skip conditions), so multi-RHS
// results are bit-identical to k scalar calls. The AC determinism
// suite leans on this; do not reorder the per-RHS arithmetic for speed
// without updating it.

// SolveMulti solves A*x_c = b_c for k right-hand sides against this one
// factorization. b and x are column-major with RHS c occupying
// [c*n, (c+1)*n); they may not alias. RHS c's result is bit-identical
// to Solve(b_c, x_c). Scratch grows to the largest k seen and is then
// reused, so steady-state calls at a fixed k are allocation-free.
//
// Only complex128 factorizations implement it (the noise columns are
// its one consumer); a float64 factorization panics.
func (f *LUOf[T]) SolveMulti(b, x []T, k int, fc *flop.Counter) {
	if k <= 0 {
		panic(fmt.Sprintf("spmat: SolveMulti with %d right-hand sides", k))
	}
	if len(b) != f.n*k || len(x) != f.n*k {
		panic("spmat: SolveMulti dimension mismatch")
	}
	ff, ok := any(f).(*LUOf[complex128])
	if !ok {
		panic("spmat: SolveMulti needs a complex128 factorization")
	}
	f.materialize()
	if cap(f.yMul) < f.n*k {
		f.yMul = make([]T, f.n*k)
		f.zMul = make([]T, f.n*k)
		f.sMul = make([]T, k)
	}
	solveMultiCplx(ff, any(b).([]complex128), any(x).([]complex128), k, fc)
}
