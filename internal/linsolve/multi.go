package linsolve

// This file is the multi-RHS face of the linsolve package, wrapping
// the spmat multi-RHS kernel (spmat/lu_multi.go) in the Solver state
// machine: ComplexMultiRHS is a backend capability — solve k
// right-hand sides against ONE assembled matrix and factorization. The
// complex sparse backend implements it; consumers (the AC noise
// columns) type-assert and fall back to a scalar Solve loop when the
// backend does not.

// ComplexMultiRHS is implemented by complex backends that can solve
// several right-hand sides against one factorization. b and x are
// column-major with RHS c occupying [c*n, (c+1)*n); RHS c's result is
// bit-identical to a scalar Solve of the same vector.
type ComplexMultiRHS interface {
	SolveMulti(b, x []complex128, k int) error
}

// SolveMulti solves k right-hand sides against the currently assembled
// matrix, factoring (or refactoring) it exactly as Solve would first.
// spmat implements the multi-RHS kernel for complex128 only: the real
// backend's instance of this method panics, and no interface names its
// signature.
func (s *sparseOf[T]) SolveMulti(b, x []T, k int) error {
	if err := s.ensureFactored(); err != nil {
		return err
	}
	s.lu.SolveMulti(b, x, k, s.fc)
	return nil
}
