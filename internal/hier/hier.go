// Package hier compiles a transient analysis hierarchically: one
// compiled sub-circuit per congruence class of torn blocks instead of
// one per block. A netlist built from repeated subcircuit instances — a
// 4096-stage pipeline of one RTD cell — partitions into thousands of
// blocks that are byte-for-byte the same circuit; the flat path
// (core.CompileTransient) materializes, stamps, pattern-compiles and
// symbolically analyzes every one. This package materializes one
// representative per class, lets the rest adopt its sub-circuit and MNA
// view (part.Skeleton.Adopt), and clones its compiled solver template
// (linsolve.TemplateOf) into the siblings, leaving only per-instance
// numeric state: each block keeps its own solver values, RHS, device
// history and dormancy.
//
// Bit-identity with the flat path is structural, not approximate. A
// block joins a group only when its signature matches a donor's AND a
// direct element-by-element value comparison passes (sig.go), so
// an adopted block's first assembled matrix equals its donor's
// bit-for-bit; the
// cloned template then replays the donor's pivot order on those same
// values, which is exactly the factorization the flat path would have
// computed from scratch. Waveforms, step sequences and core.Stats are
// identical; only linsolve's amortization counters (full factors vs
// numeric refactors) differ. If any assumption is off — a signature
// groups what Adopt rejects — the compiler falls back to materializing
// that block flat, trading speed for the unchanged result.
package hier

import (
	"bytes"
	"hash/maphash"
	"strings"

	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/linsolve"
	"nanosim/internal/part"
	"nanosim/internal/stamp"
)

// Report describes how much structure the hierarchical compiler shared.
type Report struct {
	// Blocks is the partition's block count (1 for monolithic runs).
	Blocks int
	// Groups is the number of distinct block signatures; equal to
	// Blocks when nothing repeats.
	Groups int
	// Materialized counts blocks compiled in full: one donor per group
	// plus every fallback. Materialized + Adopted == Blocks.
	Materialized int
	// Adopted counts blocks sharing a donor's sub-circuit and MNA view.
	Adopted int
	// Cloned counts solvers stamped out of a donor's compiled template
	// (Adopted blocks whose donor runs the sparse compiled backend).
	Cloned int
	// Fallbacks counts blocks whose Adopt failed and were materialized
	// flat instead — nonzero means a signature grouped what the
	// positional congruence check rejected (a bug worth reporting, but
	// never a wrong result).
	Fallbacks int
	// MaterializedDim and TotalDim compare compiled system rows: the
	// sum over distinct compiled systems vs the sum every block would
	// cost flat. Their ratio is the structural sharing factor.
	MaterializedDim int
	TotalDim        int
	// Masters counts adopted blocks per subcircuit master (attributed
	// through the netlist's instance table when present).
	Masters map[string]int
}

// SharingFactor is TotalDim/MaterializedDim — how many rows of compiled
// structure each materialized row serves.
func (r *Report) SharingFactor() float64 {
	if r.MaterializedDim == 0 {
		return 1
	}
	return float64(r.TotalDim) / float64(r.MaterializedDim)
}

// CompileTransient compiles ckt for one transient run, sharing compiled
// sub-circuits across congruent blocks. The result is a plain
// core.CompiledTransient — Run, solver accounting and recording behave
// exactly as in the flat path. Without a partition request (or when the
// partition degenerates to a single block) it defers to
// core.CompileTransient unchanged.
func CompileTransient(ckt *circuit.Circuit, opt core.Options) (*core.CompiledTransient, *Report, error) {
	if opt.Partition == nil {
		return compileFlat(ckt, opt)
	}
	// Invalid options fail first, with the flat engine's error, before
	// any structure is built.
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, nil, err
	}
	sk, err := part.Structure(ckt, sys, *opt.Partition)
	if err != nil {
		return nil, nil, err
	}
	nBlocks := len(sk.Part.Blocks)
	if nBlocks < 2 {
		// Degenerate partition: the monolithic engine, as in
		// core.Transient, without partitioning a second time.
		opt.Partition = nil
		return compileFlat(ckt, opt)
	}
	x0, err := sys.InitialState(opt.IC)
	if err != nil {
		return nil, nil, err
	}

	rep := &Report{Blocks: nBlocks, Masters: map[string]int{}}
	type group struct {
		donor   int
		members []int
		sig     []byte // the donor's signature
	}
	// Two-stage congruence: bucket by a hash of the cheap signature (one
	// reused buffer), compare the signature bytes in full, then verify
	// element values against each donor in the bucket directly.
	// Distinct model or waveform content under one signature simply
	// becomes additional donors in the same bucket. Hashing once keeps
	// long signatures out of map probes and rehashes.
	seed := maphash.MakeSeed()
	groups := map[uint64][]*group{}
	var order []*group // deterministic donor order
	w := &sigWriter{b: make([]byte, 0, 1<<13), local: make([]int, len(x0))}
	for b := 0; b < nBlocks; b++ {
		ok := blockSig(w, sk, b, x0)
		var key uint64
		var g *group
		if ok {
			key = maphash.Bytes(seed, w.b)
			for _, cand := range groups[key] {
				if bytes.Equal(cand.sig, w.b) && congruentValues(sk, b, cand.donor) {
					g = cand
					break
				}
			}
		}
		if g == nil {
			if err := sk.Materialize(b); err != nil {
				return nil, nil, err
			}
			rep.Materialized++
			ng := &group{donor: b}
			order = append(order, ng)
			if ok {
				ng.sig = bytes.Clone(w.b)
				groups[key] = append(groups[key], ng)
			}
			continue
		}
		if err := sk.Adopt(b, g.donor); err != nil {
			// The signature over-grouped; compile this block flat. The
			// result is unchanged, only slower — record it.
			if err := sk.Materialize(b); err != nil {
				return nil, nil, err
			}
			rep.Materialized++
			rep.Fallbacks++
			order = append(order, &group{donor: b})
			continue
		}
		g.members = append(g.members, b)
		rep.Adopted++
		if m := masterOf(ckt.Hier, firstElemName(sk, b)); m != "" {
			rep.Masters[m]++
		}
	}
	rep.Groups = len(order)

	p, err := sk.Finish()
	if err != nil {
		return nil, nil, err
	}
	ct, err := core.CompilePartition(ckt, sys, p, opt)
	if err != nil {
		return nil, nil, err
	}
	for _, blk := range p.Blocks {
		rep.TotalDim += blk.Sys.Dim()
	}

	// Warm the donors that have members (one pattern compile + symbolic
	// analysis per shared group), then stamp template clones into the
	// members. Members are not warmed: a clone carries the donor's
	// pattern, slot map and factorization skeleton, and its first
	// run-time solve performs the numeric refactorization on its own
	// first assembly — the same arithmetic, at the same values, as the
	// flat path's first full factorization. A block nothing shares with
	// stays unwarmed and compiles on its first solve, as in
	// core.Transient, so a deck where nothing repeats pays no eager
	// warm.
	var donors []int
	for _, g := range order {
		rep.MaterializedDim += p.Blocks[g.donor].Sys.Dim()
		if len(g.members) > 0 {
			donors = append(donors, g.donor)
		}
	}
	if len(donors) > 0 {
		if err := ct.WarmBlocks(donors); err != nil {
			return nil, nil, err
		}
	}
	for _, g := range order {
		if len(g.members) == 0 {
			continue
		}
		tpl, ok := linsolve.TemplateOf(ct.BlockSolver(g.donor))
		if !ok {
			// Dense (history-free) or uncompiled donor: the members'
			// own solvers are already correct and cheap.
			continue
		}
		for _, m := range g.members {
			if err := ct.SetBlockSolver(m, tpl.NewSolver(opt.FC)); err != nil {
				return nil, nil, err
			}
			rep.Cloned++
		}
	}
	return ct, rep, nil
}

// compileFlat defers to the flat compiler and reports zero sharing.
func compileFlat(ckt *circuit.Circuit, opt core.Options) (*core.CompiledTransient, *Report, error) {
	ct, err := core.CompileTransient(ckt, opt)
	if err != nil {
		return nil, nil, err
	}
	n := ct.NumBlocks()
	rep := &Report{Blocks: n, Groups: n, Materialized: n, Masters: map[string]int{}}
	for b := 0; b < n; b++ {
		rep.TotalDim += ct.BlockDim(b)
		rep.MaterializedDim += ct.BlockDim(b)
	}
	return ct, rep, nil
}

// firstElemName names block b's first internal element, or "".
func firstElemName(sk *part.Skeleton, b int) string {
	if len(sk.Elems[b]) == 0 {
		return ""
	}
	return sk.Ckt.Elements()[sk.Elems[b][0]].Name()
}

// masterOf attributes a flattened element name to the deepest
// subcircuit instance whose path prefixes it, for reporting.
func masterOf(h *circuit.Hierarchy, elemName string) string {
	if h == nil || elemName == "" {
		return ""
	}
	path := elemName
	for {
		dot := strings.LastIndexByte(path, '.')
		if dot < 0 {
			return ""
		}
		path = path[:dot]
		if in := h.Instance(path); in != nil {
			return in.Master
		}
	}
}
