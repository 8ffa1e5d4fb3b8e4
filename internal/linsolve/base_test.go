package linsolve

import (
	"math"
	"math/rand"
	"testing"
)

// adder is the stamping side of a Solver; addFunc adapts a template's
// recording callback to it.
type adder interface{ Add(i, j int, v float64) }

type addFunc func(i, j int, v float64)

func (f addFunc) Add(i, j int, v float64) { f(i, j, v) }

// stampConst stamps a fixed ladder — the stand-in for an engine's
// linear conductances and Gmin — into s.
func stampConst(s adder, n int) {
	for i := 0; i < n; i++ {
		s.Add(i, i, 1e-3+1e-12)
		if i > 0 {
			s.Add(i, i-1, -1e-3)
			s.Add(i-1, i, -1e-3)
			s.Add(i, i, 1e-3)
			s.Add(i-1, i-1, 1e-3)
		}
	}
	s.Add(0, n-1, -2e-4)
	s.Add(n-1, 0, -2e-4)
}

// stampVarying stamps the per-assembly part: diagonal device
// conductances and a coupling that land on slots the constant part
// already filled, with values drawn from rng.
func stampVarying(s adder, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		s.Add(i, i, rng.Float64()*1e-2)
	}
	g := rng.Float64() * 1e-3
	s.Add(1, 2, -g)
	s.Add(2, 1, -g)
}

// TestRestoreBaseMatchesReset: on both backends, restoring a base and
// stamping the varying part leaves exactly the matrix and solution of
// Reset followed by every stamp, assembly after assembly.
func TestRestoreBaseMatchesReset(t *testing.T) {
	const n = 12
	for _, c := range []struct {
		name string
		mk   Factory
	}{{"dense", NewDense}, {"sparse", NewSparse}} {
		t.Run(c.name, func(t *testing.T) {
			based, plain := c.mk(n, nil), c.mk(n, nil)
			rngA, rngB := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = float64(i%3) - 0.7
			}
			xa, xb := make([]float64, n), make([]float64, n)
			restored := 0
			for step := 0; step < 6; step++ {
				if based.RestoreBase() {
					restored++
				} else {
					based.Reset()
					stampConst(based, n)
					based.MarkBase()
				}
				stampVarying(based, n, rngA)
				plain.Reset()
				stampConst(plain, n)
				stampVarying(plain, n, rngB)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if a, b := based.At(i, j), plain.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("step %d: A[%d][%d] = %v restored, %v restamped", step, i, j, a, b)
						}
					}
				}
				if err := based.Solve(rhs, xa); err != nil {
					t.Fatal(err)
				}
				if err := plain.Solve(rhs, xb); err != nil {
					t.Fatal(err)
				}
				for i := range xa {
					if math.Float64bits(xa[i]) != math.Float64bits(xb[i]) {
						t.Fatalf("step %d: x[%d] = %v restored, %v restamped", step, i, xa[i], xb[i])
					}
				}
			}
			// The sparse solver records its first assembly, so its base is
			// marked on the second; the dense one keeps the first.
			if want := map[string]int{"dense": 5, "sparse": 4}[c.name]; restored != want {
				t.Errorf("restored %d of 6 assemblies, want %d", restored, want)
			}
		})
	}
}

// TestRestoreBaseReportsNoBase: a solver has no base before one is
// marked, while the sparse backend is still recording its first
// pattern, and after a pattern rebuild.
func TestRestoreBaseReportsNoBase(t *testing.T) {
	const n = 12
	for _, mk := range []Factory{NewDense, NewSparse} {
		if mk(n, nil).RestoreBase() {
			t.Error("fresh solver restored a base it never marked")
		}
	}
	s := NewSparse(n, nil)
	stampConst(s, n)
	s.MarkBase()
	if s.RestoreBase() {
		t.Fatal("restored a base marked while recording the first pattern")
	}
	rhs, x := make([]float64, n), make([]float64, n)
	rhs[0] = 1
	if err := s.Solve(rhs, x); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	stampConst(s, n)
	s.MarkBase()
	if !s.RestoreBase() {
		t.Fatal("no base after marking on a compiled pattern")
	}
	// A stamp off the recorded sequence rebuilds the pattern.
	s.Add(n-1, n-2, 1)
	if st := s.(Refactorable).SolveStats(); st.PatternRebuild != 1 {
		t.Fatalf("stats %+v, want one pattern rebuild", st)
	}
	if s.RestoreBase() {
		t.Error("restored a base across a pattern rebuild")
	}
}

// TestTemplateClonesKeepSeparateBases: clones of one template share its
// structure but each keeps its own base.
func TestTemplateClonesKeepSeparateBases(t *testing.T) {
	const n = 12
	tpl := NewSparseTemplate(n, func(add func(i, j int, v float64)) {
		stampConst(addFunc(add), n)
		stampVarying(addFunc(add), n, rand.New(rand.NewSource(1)))
	})
	a, b := tpl.NewSolver(nil), tpl.NewSolver(nil)
	for k, s := range []Solver{a, b} {
		s.Reset()
		stampConst(s, n)
		s.Add(0, 0, float64(k+1))
		s.MarkBase()
	}
	for k, s := range []Solver{a, b} {
		s.Reset()
		if !s.RestoreBase() {
			t.Fatalf("clone %d kept no base", k)
		}
		want := NewDense(n, nil)
		stampConst(want, n)
		want.Add(0, 0, float64(k+1))
		if got := s.At(0, 0); got != want.At(0, 0) {
			t.Errorf("clone %d: A[0][0] = %v after restore, want its own base's %v", k, got, want.At(0, 0))
		}
	}
}
