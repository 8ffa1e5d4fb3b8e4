package randx

import (
	"math"
	"testing"
)

func TestStreamReproducible(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Norm() != b.Norm() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 100; i++ {
		if a.Norm() == c.Norm() {
			same++
		}
	}
	if same > 5 {
		t.Error("different seeds produced suspiciously similar sequences")
	}
}

func TestSplitIndependence(t *testing.T) {
	s0, s1 := Split(9, 0), Split(9, 1)
	matches := 0
	for i := 0; i < 1000; i++ {
		if s0.Float64() == s1.Float64() {
			matches++
		}
	}
	if matches > 0 {
		t.Errorf("split streams collided %d times", matches)
	}
	// Same (seed, index) must reproduce.
	a, b := Split(9, 3), Split(9, 3)
	if a.Norm() != b.Norm() {
		t.Error("Split not deterministic")
	}
}

func TestNormMoments(t *testing.T) {
	s := New(7)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestNormVecAndIntn(t *testing.T) {
	s := New(3)
	v := make([]float64, 10)
	s.NormVec(v)
	nonzero := 0
	for _, x := range v {
		if x != 0 {
			nonzero++
		}
	}
	if nonzero < 8 {
		t.Error("NormVec left elements unset")
	}
	for i := 0; i < 100; i++ {
		if k := s.Intn(5); k < 0 || k >= 5 {
			t.Fatalf("Intn out of range: %d", k)
		}
	}
}

// TestWienerProperties checks the three defining conditions from paper
// §4.1: W(0)=0, increments ~N(0, dt), disjoint increments independent.
func TestWienerProperties(t *testing.T) {
	const paths, steps = 2000, 16
	const tEnd = 1.0
	dt := tEnd / steps
	// Across many paths, check increment mean/variance and correlation of
	// adjacent increments.
	var sum, sum2, cross float64
	for p := 0; p < paths; p++ {
		w := NewWiener(Split(11, p), tEnd, steps)
		if w.W[0] != 0 || w.T[0] != 0 {
			t.Fatal("W(0) != 0")
		}
		for j := 0; j < steps; j++ {
			d := w.Increment(j)
			sum += d
			sum2 += d * d
			if j > 0 {
				cross += d * w.Increment(j-1)
			}
		}
	}
	n := float64(paths * steps)
	mean := sum / n
	variance := sum2 / n
	corr := cross / (float64(paths*(steps-1)) * dt)
	if math.Abs(mean) > 4*math.Sqrt(dt/n) {
		t.Errorf("increment mean = %g, want ~0", mean)
	}
	if math.Abs(variance-dt)/dt > 0.05 {
		t.Errorf("increment variance = %g, want %g", variance, dt)
	}
	if math.Abs(corr) > 0.05 {
		t.Errorf("adjacent increment correlation = %g, want ~0", corr)
	}
}

func TestWienerEndpointVariance(t *testing.T) {
	// Var[W(T)] = T.
	const paths = 5000
	const tEnd = 2.5
	var sum2 float64
	for p := 0; p < paths; p++ {
		w := NewWiener(Split(5, p), tEnd, 8)
		end := w.W[w.Steps()]
		sum2 += end * end
	}
	v := sum2 / paths
	if math.Abs(v-tEnd)/tEnd > 0.07 {
		t.Errorf("Var[W(T)] = %g, want %g", v, tEnd)
	}
}

func TestWienerAt(t *testing.T) {
	w := &Wiener{T: []float64{0, 1, 2}, W: []float64{0, 2, -2}}
	if w.At(-1) != 0 || w.At(5) != -2 {
		t.Error("At should clamp to domain")
	}
	if got := w.At(0.5); got != 1 {
		t.Errorf("At(0.5) = %g, want 1", got)
	}
	if got := w.At(1.5); got != 0 {
		t.Errorf("At(1.5) = %g, want 0", got)
	}
}

func TestRefinePreservesSamples(t *testing.T) {
	s := New(21)
	w := NewWiener(s, 1, 8)
	r := w.Refine(New(22))
	if r.Steps() != 16 {
		t.Fatalf("refined steps = %d, want 16", r.Steps())
	}
	for j := 0; j <= 8; j++ {
		if r.W[2*j] != w.W[j] || r.T[2*j] != w.T[j] {
			t.Fatalf("refinement moved original sample %d", j)
		}
	}
}

func TestRefineBridgeVariance(t *testing.T) {
	// Midpoint of a bridge over [0, dt] given endpoints has variance dt/4.
	const paths = 4000
	var sum2 float64
	for p := 0; p < paths; p++ {
		w := NewWiener(Split(31, p), 1, 1) // single step of dt=1
		r := w.Refine(Split(41, p))
		mid := r.W[1] - 0.5*(w.W[0]+w.W[1])
		sum2 += mid * mid
	}
	v := sum2 / paths
	if math.Abs(v-0.25) > 0.02 {
		t.Errorf("bridge midpoint variance = %g, want 0.25", v)
	}
}

func TestCoarsen(t *testing.T) {
	w := NewWiener(New(1), 1, 8)
	c := w.Coarsen(2)
	if c.Steps() != 4 {
		t.Fatalf("coarsened steps = %d, want 4", c.Steps())
	}
	for j := 0; j <= 4; j++ {
		if c.W[j] != w.W[2*j] {
			t.Fatal("Coarsen did not subsample")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Coarsen with non-dividing stride did not panic")
		}
	}()
	w.Coarsen(3)
}

func TestNewWienerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWiener(0 steps) did not panic")
		}
	}()
	NewWiener(New(1), 1, 0)
}

// TestResplitMatchesSplit: a used stream resplit to (seed, i) yields
// exactly the draws of a fresh Split(seed, i), across every draw kind.
func TestResplitMatchesSplit(t *testing.T) {
	s := New(99)
	for _, c := range []struct {
		seed uint64
		i    int
	}{{1, 0}, {1, 7}, {42, 3}, {42, 3}, {0, 1 << 20}} {
		// Leave s mid-stream first, as the previous trial would.
		s.Norm()
		s.Intn(5)
		s.Resplit(c.seed, c.i)
		fresh := Split(c.seed, c.i)
		for k := 0; k < 64; k++ {
			var a, b any
			switch k % 4 {
			case 0:
				a, b = s.Uint64(), fresh.Uint64()
			case 1:
				a, b = s.Float64(), fresh.Float64()
			case 2:
				a, b = s.Norm(), fresh.Norm()
			default:
				a, b = s.Intn(1000), fresh.Intn(1000)
			}
			if a != b {
				t.Fatalf("Split(%d, %d) draw %d: resplit stream %v, fresh %v", c.seed, c.i, k, a, b)
			}
		}
	}
}
