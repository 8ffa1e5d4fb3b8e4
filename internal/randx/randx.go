// Package randx provides the reproducible random number machinery behind
// the Euler-Maruyama engine of the paper's "statistical" half: seeded
// streams, normal variates and discretized Wiener processes (standard
// Brownian motion), plus Brownian-bridge refinement for adaptive-step
// stochastic integration.
//
// Reproducibility contract: every generator is constructed from an
// explicit uint64 seed, streams derived with Split are independent for
// distinct indices, and no package-level mutable state exists — Monte
// Carlo ensembles run one stream per path and produce identical results
// at any GOMAXPROCS.
package randx

import (
	"math"
	"math/rand"
)

// Stream is a seeded source of variates. It wraps the stdlib generator so
// the rest of nanosim never touches math/rand directly, keeping the
// seeding policy in one place.
type Stream struct {
	rng *rand.Rand
}

// New returns a Stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{rng: rand.New(rand.NewSource(int64(seed)))}
}

// splitMix64 scrambles a counter into a well-distributed 64-bit value;
// used to derive independent child seeds.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives the i-th child stream of the given seed. Children with
// different indices are statistically independent, which lets ensemble
// runners hand one stream to each Monte Carlo path.
func Split(seed uint64, i int) *Stream {
	return New(childSeed(seed, i))
}

// Resplit re-seeds s in place to the state of a fresh Split(seed, i),
// so it yields exactly that stream's draws without allocating another
// source (about 5 KiB of generator state). A batch runner keeps one
// stream per worker and resplits it for every trial.
func (s *Stream) Resplit(seed uint64, i int) {
	s.rng.Seed(int64(childSeed(seed, i)))
}

// childSeed is the seed of Split's i-th child of seed.
func childSeed(seed uint64, i int) uint64 {
	return splitMix64(seed ^ splitMix64(uint64(i)+1))
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Norm returns a standard normal variate.
func (s *Stream) Norm() float64 { return s.rng.NormFloat64() }

// Uint64 returns a uniform 64-bit value, used to derive child seeds
// (e.g. the per-trial Euler-Maruyama seed of a process-variation run)
// from a stream without coupling them to the stream's variate draws.
func (s *Stream) Uint64() uint64 { return s.rng.Uint64() }

// NormVec fills dst with independent standard normal variates.
func (s *Stream) NormVec(dst []float64) {
	for i := range dst {
		dst[i] = s.rng.NormFloat64()
	}
}

// Intn returns a uniform int in [0, n).
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// Wiener is a discretized standard Wiener process W(t) on [0, T]:
// W(0) = 0, increments W(t)-W(s) ~ N(0, t-s) independent on disjoint
// intervals (paper §4.1 conditions 1-3).
type Wiener struct {
	T []float64 // sample times, T[0] == 0
	W []float64 // process values, W[0] == 0
}

// NewWiener samples a Wiener path at n uniform steps over [0, tEnd].
// The returned path has n+1 points including the origin.
func NewWiener(s *Stream, tEnd float64, n int) *Wiener {
	if n < 1 || tEnd <= 0 {
		panic("randx: NewWiener needs n >= 1 and tEnd > 0")
	}
	dt := tEnd / float64(n)
	sq := math.Sqrt(dt)
	w := &Wiener{T: make([]float64, n+1), W: make([]float64, n+1)}
	for j := 1; j <= n; j++ {
		w.T[j] = float64(j) * dt
		w.W[j] = w.W[j-1] + sq*s.Norm()
	}
	return w
}

// Increment returns W(T[j+1]) - W(T[j]).
func (w *Wiener) Increment(j int) float64 { return w.W[j+1] - w.W[j] }

// Steps returns the number of increments in the path.
func (w *Wiener) Steps() int { return len(w.T) - 1 }

// At returns W(t) by linear interpolation between samples; t is clamped
// to the path's domain. Interpolation (rather than bridge sampling) is
// deterministic, which integrators rely on when re-evaluating a step.
func (w *Wiener) At(t float64) float64 {
	n := len(w.T)
	if t <= w.T[0] {
		return w.W[0]
	}
	if t >= w.T[n-1] {
		return w.W[n-1]
	}
	// Binary search for the bracketing interval.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w.T[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (t - w.T[lo]) / (w.T[hi] - w.T[lo])
	return w.W[lo] + f*(w.W[hi]-w.W[lo])
}

// Refine returns a new path with each step split in two using the
// Brownian bridge, preserving the original samples exactly. This supports
// step-halving convergence studies on the *same* underlying randomness,
// which is how strong EM convergence order is measured (Higham §4,
// paper ref [13]).
func (w *Wiener) Refine(s *Stream) *Wiener {
	n := w.Steps()
	r := &Wiener{T: make([]float64, 2*n+1), W: make([]float64, 2*n+1)}
	for j := 0; j < n; j++ {
		t0, t1 := w.T[j], w.T[j+1]
		tm := 0.5 * (t0 + t1)
		// Brownian bridge midpoint: mean of endpoints + N(0, dt/4).
		mean := 0.5 * (w.W[j] + w.W[j+1])
		sd := 0.5 * math.Sqrt(t1-t0)
		r.T[2*j], r.W[2*j] = t0, w.W[j]
		r.T[2*j+1], r.W[2*j+1] = tm, mean+sd*s.Norm()
	}
	r.T[2*n], r.W[2*n] = w.T[n], w.W[n]
	return r
}

// Coarsen returns the path sampled at every stride-th point; the natural
// inverse of Refine for convergence ladders. stride must divide Steps().
func (w *Wiener) Coarsen(stride int) *Wiener {
	n := w.Steps()
	if stride < 1 || n%stride != 0 {
		panic("randx: Coarsen stride must divide step count")
	}
	m := n / stride
	r := &Wiener{T: make([]float64, m+1), W: make([]float64, m+1)}
	for j := 0; j <= m; j++ {
		r.T[j] = w.T[j*stride]
		r.W[j] = w.W[j*stride]
	}
	return r
}
