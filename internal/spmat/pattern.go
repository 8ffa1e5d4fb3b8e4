package spmat

import (
	"fmt"
	"sort"

	"nanosim/internal/flop"
)

// PatternOf is a compiled stamp pattern: the frozen sparsity structure of
// a square matrix plus its current numeric values, laid out CSR-style. It
// is the allocation-free counterpart of Triplet for the per-step hot
// path: the structure is compiled once (from the first assembly's Add
// sequence) and every later restamp is a pure array write through a
// precomputed slot index — no map operations, no allocations. The complex
// instantiation carries the same property across AC frequency points,
// where only the jωC values change between solves.
type PatternOf[T Scalar] struct {
	n      int
	rowPtr []int32
	colIdx []int32
	vals   []T
}

// Pattern is the real-valued compiled pattern of the transient hot path.
type Pattern = PatternOf[float64]

// Key packs an (i, j) coordinate into the int64 form the compiler and
// the slot-verification fast path share.
func Key(i, j int) int64 { return int64(i)<<32 | int64(j) }

// CompilePattern builds the real-valued frozen sparsity from a recorded
// stamp-coordinate sequence; see CompilePatternOf.
func CompilePattern(n int, seq []int64) (*Pattern, []int32) {
	return CompilePatternOf[float64](n, seq)
}

// CompilePatternOf builds the frozen sparsity from a recorded sequence of
// stamp coordinates (duplicates allowed — MNA stamping hits the same
// entry from several devices) and returns, for each position of the
// input sequence, the slot its value accumulates into. Values start at
// zero; the caller scatters the first assembly in through Add.
func CompilePatternOf[T Scalar](n int, seq []int64) (*PatternOf[T], []int32) {
	if n <= 0 {
		panic(fmt.Sprintf("spmat: invalid pattern dimension %d", n))
	}
	uniq := make([]int64, len(seq))
	copy(uniq, seq)
	sort.Slice(uniq, func(a, b int) bool { return uniq[a] < uniq[b] })
	w := 0
	for r := 0; r < len(uniq); r++ {
		if w == 0 || uniq[r] != uniq[w-1] {
			uniq[w] = uniq[r]
			w++
		}
	}
	uniq = uniq[:w]
	p := &PatternOf[T]{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, len(uniq)),
		vals:   make([]T, len(uniq)),
	}
	for k, key := range uniq {
		i, j := int(key>>32), int(key&0xffffffff)
		if i < 0 || i >= n || j < 0 || j >= n {
			panic(fmt.Sprintf("spmat: pattern key (%d,%d) out of range %dx%d", i, j, n, n))
		}
		p.rowPtr[i+1]++
		p.colIdx[k] = int32(j)
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	slots := make([]int32, len(seq))
	for k, key := range seq {
		// Binary search within the (already sorted) unique key list.
		lo, hi := 0, len(uniq)
		for lo < hi {
			mid := (lo + hi) / 2
			if uniq[mid] < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		slots[k] = int32(lo)
	}
	return p, slots
}

// Rows returns the matrix dimension.
func (p *PatternOf[T]) Rows() int { return p.n }

// Cols returns the matrix dimension.
func (p *PatternOf[T]) Cols() int { return p.n }

// NNZ returns the number of structural entries.
func (p *PatternOf[T]) NNZ() int { return len(p.vals) }

// Zero clears all values, keeping the structure.
func (p *PatternOf[T]) Zero() {
	for i := range p.vals {
		p.vals[i] = 0
	}
}

// SaveValues appends the current values, in slot order, to dst[:0] and
// returns the result; LoadValues puts them back. Together they let a
// solver snapshot a partial assembly and return to it later.
func (p *PatternOf[T]) SaveValues(dst []T) []T { return append(dst[:0], p.vals...) }

// LoadValues overwrites the values with src, a SaveValues snapshot of a
// pattern with this structure.
func (p *PatternOf[T]) LoadValues(src []T) { copy(p.vals, src) }

// AddSlot accumulates v into a compiled slot (from CompilePattern).
func (p *PatternOf[T]) AddSlot(slot int32, v T) { p.vals[slot] += v }

// At returns element (i, j) by binary search within the row; structural
// absences read as zero. Diagnostics path — the hot path uses AddSlot.
func (p *PatternOf[T]) At(i, j int) T {
	lo, hi := p.rowPtr[i], p.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(p.colIdx[mid]) == j:
			return p.vals[mid]
		case int(p.colIdx[mid]) < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	var zero T
	return zero
}

// SetAt overwrites the value of structural entry (i, j); it panics when
// the entry is absent from the pattern. One-time scatter path (compile),
// not the per-step hot path.
func (p *PatternOf[T]) SetAt(i, j int, v T) {
	lo, hi := p.rowPtr[i], p.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(p.colIdx[mid]) == j:
			p.vals[mid] = v
			return
		case int(p.colIdx[mid]) < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	panic(fmt.Sprintf("spmat: SetAt(%d,%d) outside compiled pattern", i, j))
}

// EachNonzero visits every structural entry with a nonzero value in row
// order.
func (p *PatternOf[T]) EachNonzero(visit func(i, j int, v T)) {
	for i := 0; i < p.n; i++ {
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			if p.vals[k] != 0 {
				visit(i, int(p.colIdx[k]), p.vals[k])
			}
		}
	}
}

// MulVec computes y = P*x in fixed row order — deterministic summation,
// unlike iterating a map-backed Triplet.
func (p *PatternOf[T]) MulVec(x, y []T, fc *flop.Counter) {
	if len(x) != p.n || len(y) != p.n {
		panic("spmat: MulVec dimension mismatch")
	}
	for i := 0; i < p.n; i++ {
		var s T
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			s += p.vals[k] * x[p.colIdx[k]]
		}
		y[i] = s
	}
	fc.Mul(len(p.vals))
	fc.Add(len(p.vals))
}
