package linsolve

import (
	"nanosim/internal/flop"
	"nanosim/internal/spmat"
)

// SparseTemplate captures everything about a sparse solver that depends
// only on the stamp SEQUENCE, not on any particular matrix values: the
// recorded Add-coordinate sequence, the compiled pattern structure, the
// per-position slot table, and a symbolic LU (pivot order + fill + reuse
// program). Solvers cloned from a template start life on the compiled
// fast path — their first assembly is already positional array writes and
// their first Solve is a numeric-only refactorization — so a deck with N
// instances of one subcircuit master pays pattern compilation and
// symbolic analysis once, not N times.
//
// Determinism contract: a template is a pure function of (n, seq). The
// symbolic factorization runs on a synthetic matrix derived from the
// pattern structure alone (see synthVal), never on an instance's values,
// so two solvers warmed from templates built over identical sequences are
// indistinguishable — the bit-identity guarantee the hierarchical compile
// path (internal/hier) owes the flat reference path.
type SparseTemplate struct {
	n     int
	seq   []int64
	pat   *spmat.Pattern // structure donor; values hold the synthetic factor input
	slots []int32
	lu    *spmat.LU // symbolic donor; nil when the synthetic factorization failed
}

// synthVal is the synthetic matrix entry for structural position (i, j):
// structurally diagonally dominant with deterministically "random"
// off-diagonals so that patterns without literal diagonal entries (MNA
// branch-current rows) still factor generically. The mix is splitmix64's
// finalizer over the packed coordinate.
func synthVal(i, j int) float64 {
	if i == j {
		return 4
	}
	h := uint64(spmat.Key(i, j)) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return -0.25 - float64(h%1024)/2048 // in [-0.75, -0.25)
}

// NewSparseTemplate records the Add-coordinate sequence that assemble
// produces (values passed to add are ignored), compiles it, and performs
// the one-time symbolic analysis on the synthetic matrix. assemble must
// call add in exactly the order the real engine will stamp; a cloned
// solver that later observes a different order falls back to recording
// mode per the normal divergence path.
func NewSparseTemplate(n int, assemble func(add func(i, j int, v float64))) *SparseTemplate {
	var seq []int64
	assemble(func(i, j int, v float64) { seq = append(seq, spmat.Key(i, j)) })
	pat, slots := spmat.CompilePattern(n, seq)
	for _, key := range seq {
		i, j := int(key>>32), int(key&0xffffffff)
		pat.SetAt(i, j, synthVal(i, j))
	}
	t := &SparseTemplate{n: n, seq: seq, pat: pat, slots: slots}
	if lu, err := spmat.FactorPattern(pat, nil); err == nil {
		lu.PrepareReuse()
		t.lu = lu
	}
	// A failed synthetic factorization leaves lu nil: clones still share
	// the compiled pattern and full-factor on their real values at first
	// Solve — deterministically, since the fallback depends only on the
	// instance's own assembly.
	return t
}

// N returns the template's system dimension.
func (t *SparseTemplate) N() int { return t.n }

// NNZ returns the structural nonzero count of the compiled pattern.
func (t *SparseTemplate) NNZ() int { return t.pat.NNZ() }

// SeqLen returns the recorded stamp-sequence length.
func (t *SparseTemplate) SeqLen() int { return len(t.seq) }

// Warmed reports whether the symbolic LU is available for cloning (the
// synthetic factorization succeeded).
func (t *SparseTemplate) Warmed() bool { return t.lu != nil }

// Warmer is implemented by backends that can bring their factorization
// in sync with the currently assembled matrix outside a Solve. The
// deck-compile path (core.CompileTransient, internal/hier) stamps each
// block's first assembly and calls Warm so first-solve costs — pattern
// compilation, symbolic analysis, factorization — are paid at compile
// time. Warm counts into neither SolveStats nor the flop counter:
// compile work must not skew the run's amortization or flop accounting,
// and solvers warmed directly must report identical stats to solvers
// cloned from a template.
type Warmer interface {
	Warm() error
}

// Warm implements Warmer: it compiles and factors the currently
// assembled matrix exactly as the next Solve would, without solving.
func (s *sparseOf[T]) Warm() error {
	saved, fc := s.stats, s.fc
	s.fc = nil
	err := s.ensureFactored()
	s.stats, s.fc = saved, fc
	return err
}

// TemplateOf extracts a SparseTemplate from a warmed sparse solver,
// sharing its recorded sequence, compiled pattern structure, slot table
// and (when prepared) symbolic LU. It reports false when s is not a
// compiled real-valued sparse solver. The donor solver remains usable:
// clones share only read-only structure, and the donor's own divergence
// path copies-on-write (see decompile).
func TemplateOf(s Solver) (*SparseTemplate, bool) {
	sp, ok := s.(*sparseOf[float64])
	if !ok || sp.pat == nil {
		return nil, false
	}
	t := &SparseTemplate{n: sp.n, seq: sp.seq, pat: sp.pat, slots: sp.slots}
	if sp.lu != nil && sp.lu.Prepared() {
		t.lu = sp.lu
	}
	return t, true
}

// NewSolver clones a ready-to-stamp solver from the template. The clone
// shares the template's sequence, slot table, pattern structure and LU
// symbolic program read-only, and owns all numeric state; clones are
// independent and may be used concurrently.
func (t *SparseTemplate) NewSolver(fc *flop.Counter) Solver {
	s := &sparseOf[float64]{
		n:     t.n,
		fc:    fc,
		seq:   t.seq,
		pat:   t.pat.CloneStructure(),
		slots: t.slots,
		dirty: true,
	}
	if t.lu != nil {
		s.lu = t.lu.CloneSkeleton()
	}
	return s
}
