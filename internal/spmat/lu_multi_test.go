package spmat

import (
	"math/rand"
	"testing"
)

// multiTestShape builds a random diagonally-dominant complex pattern the
// way the refactor cross-check test does, returning the compiled
// pattern, the slot table and the stamp sequence.
func multiTestShape(rng *rand.Rand, n int) (*PatternOf[complex128], []int32, []int64) {
	var seq []int64
	for i := 0; i < n; i++ {
		seq = append(seq, Key(i, i))
		if i > 0 {
			seq = append(seq, Key(i, i-1), Key(i-1, i))
		}
		if rng.Intn(3) == 0 {
			seq = append(seq, Key(i, rng.Intn(n)))
		}
	}
	pat, slots := CompilePatternOf[complex128](n, seq)
	return pat, slots, seq
}

// ladderShape is the deterministic tridiagonal ladder: its factor order
// is stable, which the alloc test relies on.
func ladderShape(n int) (*PatternOf[complex128], []int32, []int64) {
	var seq []int64
	for i := 0; i < n; i++ {
		seq = append(seq, Key(i, i))
		if i > 0 {
			seq = append(seq, Key(i, i-1), Key(i-1, i))
		}
	}
	pat, slots := CompilePatternOf[complex128](n, seq)
	return pat, slots, seq
}

// fillShape stamps G + jωC-like values: a dominant diagonal with a
// reactive part, complex couplings off it.
func fillShape(rng *rand.Rand, pat *PatternOf[complex128], slots []int32, seq []int64) {
	pat.Zero()
	for k := range seq {
		i := int(seq[k] >> 32)
		j := int(seq[k] & 0xffffffff)
		v := complex(rng.NormFloat64(), rng.NormFloat64())
		if i == j {
			v = complex(4+rng.Float64(), rng.Float64())
		}
		pat.AddSlot(slots[k], v)
	}
}

// randRHS fills k column-major right-hand sides, zeroing every third
// entry: the forward pass has a value-dependent skip.
func randRHS(rng *rand.Rand, n, k int) []complex128 {
	b := make([]complex128, n*k)
	for i := range b {
		if i%3 != 0 {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return b
}

// TestSolveMultiBitIdenticalDeterministic locks the multi-RHS kernel to
// the scalar Solve: right-hand side c of SolveMulti must be
// bit-identical to a scalar Solve of the same vector, for every k.
func TestSolveMultiBitIdenticalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(40)
		pat, slots, seq := multiTestShape(rng, n)
		fillShape(rng, pat, slots, seq)
		lu, err := FactorPattern(pat, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lu.PrepareReuse()
		for _, k := range []int{1, 2, 3, 8} {
			b := randRHS(rng, n, k)
			x := make([]complex128, n*k)
			lu.SolveMulti(b, x, k, nil)
			xc := make([]complex128, n)
			for c := 0; c < k; c++ {
				lu.Solve(b[c*n:(c+1)*n], xc, nil)
				for i := 0; i < n; i++ {
					if x[c*n+i] != xc[i] {
						t.Fatalf("trial %d k=%d rhs %d row %d: %v != scalar %v",
							trial, k, c, i, x[c*n+i], xc[i])
					}
				}
			}
		}
	}
}

// TestSolveMultiZeroAlloc asserts the steady-state multi-RHS solve stays
// allocation-free once scratch has grown to the working k.
func TestSolveMultiZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n, k := 60, 8
	pat, slots, seq := ladderShape(n)
	fillShape(rng, pat, slots, seq)
	lu, err := FactorPattern(pat, nil)
	if err != nil {
		t.Fatal(err)
	}
	lu.PrepareReuse()
	b := randRHS(rng, n, k)
	x := make([]complex128, n*k)
	lu.SolveMulti(b, x, k, nil) // grows scratch
	allocs := testing.AllocsPerRun(50, func() {
		lu.SolveMulti(b, x, k, nil)
	})
	if allocs != 0 {
		t.Errorf("steady-state SolveMulti allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkSolveMulti compares k right-hand sides in one SolveMulti
// against k scalar solves on the same factorization: the cache-reuse
// win the AC noise columns consume.
func BenchmarkSolveMulti(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	n, k := 200, 8
	pat, slots, seq := multiTestShape(rng, n)
	fillShape(rng, pat, slots, seq)
	lu, err := FactorPattern(pat, nil)
	if err != nil {
		b.Fatal(err)
	}
	lu.PrepareReuse()
	rhs := randRHS(rng, n, k)
	x := make([]complex128, n*k)
	b.Run("batched", func(b *testing.B) {
		lu.SolveMulti(rhs, x, k, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lu.SolveMulti(rhs, x, k, nil)
		}
	})
	b.Run("scalar-loop", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := 0; c < k; c++ {
				lu.Solve(rhs[c*n:(c+1)*n], x[c*n:(c+1)*n], nil)
			}
		}
	})
}
