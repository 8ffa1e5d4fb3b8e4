package spmat

// This file holds the structure-sharing clone support behind solver
// templates (linsolve.SparseTemplate): a compiled pattern and a prepared
// LU are split into a read-only symbolic part, shared by every clone, and
// a per-clone numeric part. The hierarchical compiler (internal/hier)
// leans on this to pay pattern compilation and symbolic analysis once per
// subcircuit master and then stamp out per-instance solvers in O(nnz).

// CloneStructure returns a pattern that shares p's frozen sparsity
// structure (rowPtr/colIdx) and owns fresh zero values. The structure
// slices are never written after compilation, so any number of clones may
// coexist; values are independent per clone.
func (p *PatternOf[T]) CloneStructure() *PatternOf[T] {
	return &PatternOf[T]{
		n:      p.n,
		rowPtr: p.rowPtr,
		colIdx: p.colIdx,
		vals:   make([]T, len(p.vals)),
	}
}

// CloneSkeleton returns a factorization that shares f's symbolic program
// — pivot order (rowPerm/colPerm/invColPerm), fill structure (the column
// indices of lRows/uRows) and elimination schedule (rowSteps) — while
// owning all numeric storage (entry values, uDiag, scratch vectors). The
// clone's numeric content is unspecified until its first RefactorNumeric,
// which rewrites every L entry, U entry and diagonal; callers must
// refactor before the first Solve, which is exactly the sparseOf solver
// lifecycle (assembly marks dirty, Solve refactors first).
//
// Because that first refactorization overwrites every value anyway, the
// clone defers ALL numeric allocation to its first use (materialize,
// called from RefactorNumeric/Solve/SolveMulti). CloneSkeleton itself is
// O(1): the hierarchical compiler stamps out thousands of per-instance
// solvers at deck-compile time, and eager entry blocks — ~100KB each on a
// 2-D-fill block — turned that loop into an allocation storm. Deferring
// moves the one-time cost into each clone's first run-time refactor,
// where it is amortized against real factorization work.
//
// PrepareReuse must have been called on f. The shared symbolic slices are
// read-only in every kernel (RefactorNumeric writes only .v fields of its
// own lRows/uRows), so clones are safe to use concurrently with the donor
// and with each other.
func (f *LUOf[T]) CloneSkeleton() *LUOf[T] {
	if f.rowSteps == nil {
		panic("spmat: CloneSkeleton before PrepareReuse")
	}
	return &LUOf[T]{
		n:          f.n,
		rowPerm:    f.rowPerm,
		colPerm:    f.colPerm,
		invColPerm: f.invColPerm,
		rowSteps:   f.rowSteps,
		src:        f,
	}
}

// materialize builds a deferred clone's numeric storage: the lRows/uRows
// entry blocks (column indices copied from the donor, values left zero —
// the caller's refactorization rewrites them all), the diagonal, and the
// refactor/solve scratch. No-op on non-clones and on clones already
// materialized.
//
// The donor may be refactoring its own values concurrently (blocks solve
// in parallel at run time), so only the immutable .j index fields are
// read — never donor .v values, which would race and are garbage to a
// clone anyway.
func (f *LUOf[T]) materialize() {
	if f.src == nil {
		return
	}
	d := f.src
	f.src = nil
	f.lRows = make([][]sentOf[T], f.n)
	f.uRows = make([][]sentOf[T], f.n)
	f.uDiag = make([]T, f.n)
	f.work = make([]T, f.n)
	f.ySol = make([]T, f.n)
	f.zSol = make([]T, f.n)
	// One contiguous backing array for all row entries: a clone is three
	// header allocations plus one entry block, not 2n tiny slices.
	total := 0
	for k := 0; k < f.n; k++ {
		total += len(d.lRows[k]) + len(d.uRows[k])
	}
	ents := make([]sentOf[T], total)
	off := 0
	for k := 0; k < f.n; k++ {
		dl, du := d.lRows[k], d.uRows[k]
		l := ents[off : off+len(dl) : off+len(dl)]
		for i := range dl {
			l[i].j = dl[i].j
		}
		f.lRows[k] = l
		off += len(dl)
		u := ents[off : off+len(du) : off+len(du)]
		for i := range du {
			u[i].j = du[i].j
		}
		f.uRows[k] = u
		off += len(du)
	}
}
