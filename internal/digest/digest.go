// Package digest fingerprints a transient run's raw output: a SHA-256
// over every recorded sample, the final state and the work counters,
// so a test can pin a run's exact bits in a short committed string. A
// one-ULP move of any sample changes the digest.
//
// The run is passed piece by piece, not as an engine result type, so
// any package can digest a run without importing the engine that
// produced it, the engine's own tests included.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"nanosim/internal/wave"
)

// Run is the raw output of one transient run.
type Run struct {
	// Waves is the recorded wave set: every series, in order.
	Waves *wave.Set
	// X is the final state vector.
	X []float64
	// Stats holds the run's work counters, flop snapshot included, and
	// StatsNoFlops the same counters with the flop snapshot zeroed.
	// Both are hashed as formatted by %+v.
	Stats, StatsNoFlops any
	// Flops is the caller's flop counter read after the run (%+v).
	Flops any
}

// Sum is the digest of a run in two parts, as hex SHA-256 strings.
type Sum struct {
	// Numbers covers every series name and each raw T and V bit for
	// bit, the final state and StatsNoFlops: what the run computed.
	Numbers string
	// All covers Numbers' input plus Stats and Flops: what the run
	// computed and the floating-point work it charged for it.
	All string
}

// Of digests r.
func Of(r Run) Sum {
	h := sha256.New()
	if r.Waves != nil {
		for _, name := range r.Waves.Names() {
			s := r.Waves.Get(name)
			fmt.Fprintf(h, "series %q %d\n", name, len(s.T))
			floats(h, s.T)
			floats(h, s.V)
		}
	}
	fmt.Fprintf(h, "x %d\n", len(r.X))
	floats(h, r.X)
	fmt.Fprintf(h, "stats %+v\n", r.StatsNoFlops)
	var sum Sum
	sum.Numbers = hex.EncodeToString(h.Sum(nil))
	fmt.Fprintf(h, "flops %+v\ncounter %+v\n", r.Stats, r.Flops)
	sum.All = hex.EncodeToString(h.Sum(nil))
	return sum
}

// floats writes each value's IEEE-754 bits, little-endian.
func floats(h hash.Hash, v []float64) {
	var buf [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
}
