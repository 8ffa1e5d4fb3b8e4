package linsolve

import (
	"math/rand"
	"testing"
)

// stampLadderC assembles an RC-ladder-shaped complex system the way an
// AC point does: g[i] couples node i to i+1, every node leaks to ground
// through a conductance and a capacitive susceptance.
func stampLadderC(s ComplexSolver, g []float64, omegaC float64) {
	s.Reset()
	n := len(g) + 1
	for i := 0; i < n; i++ {
		s.Add(i, i, complex(1e-4, omegaC))
	}
	for i, gi := range g {
		s.Add(i, i, complex(gi, 0))
		s.Add(i+1, i+1, complex(gi, 0))
		s.Add(i, i+1, complex(-gi, 0))
		s.Add(i+1, i, complex(-gi, 0))
	}
}

func ladderG(rng *rand.Rand, n int) []float64 {
	g := make([]float64, n-1)
	for i := range g {
		g[i] = 1e-3 * (1 + rng.Float64())
	}
	return g
}

// warmSparseC returns a compiled+factored complex sparse solver for the
// ladder and k random column-major right-hand sides.
func warmSparseC(t testing.TB, rng *rand.Rand, n, k int) (ComplexSolver, []complex128) {
	t.Helper()
	s := NewSparseComplex(n, nil)
	stampLadderC(s, ladderG(rng, n), 1e-5)
	b := make([]complex128, n*k)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, n)
	if err := s.Solve(b[:n], x); err != nil {
		t.Fatal(err)
	}
	return s, b
}

// TestSolveMultiBackendBitIdenticalDeterministic locks the
// ComplexMultiRHS backend capability to the scalar Solve on the same
// factorization.
func TestSolveMultiBackendBitIdenticalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, k := 40, 5
	s, b := warmSparseC(t, rng, n, k)
	mr, ok := s.(ComplexMultiRHS)
	if !ok {
		t.Fatal("complex sparse backend does not implement ComplexMultiRHS")
	}
	x := make([]complex128, n*k)
	if err := mr.SolveMulti(b, x, k); err != nil {
		t.Fatal(err)
	}
	xc := make([]complex128, n)
	for c := 0; c < k; c++ {
		if err := s.Solve(b[c*n:(c+1)*n], xc); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if x[c*n+i] != xc[i] {
				t.Fatalf("rhs %d row %d: %v != scalar %v", c, i, x[c*n+i], xc[i])
			}
		}
	}
}

// TestSolveMultiBackendZeroAlloc asserts the noise-column cycle of an AC
// point, restamp then SolveMulti, allocates nothing once the solver is
// warm and its multi-RHS scratch has grown.
func TestSolveMultiBackendZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, k := 60, 8
	s, b := warmSparseC(t, rng, n, k)
	mr := s.(ComplexMultiRHS)
	g := ladderG(rng, n)
	x := make([]complex128, n*k)
	if err := mr.SolveMulti(b, x, k); err != nil {
		t.Fatal(err)
	}
	omegaC := 1e-5
	allocs := testing.AllocsPerRun(50, func() {
		omegaC *= 1.01
		stampLadderC(s, g, omegaC)
		if err := mr.SolveMulti(b, x, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state restamp+SolveMulti allocates %.1f times, want 0", allocs)
	}
}
