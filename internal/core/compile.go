package core

// Ahead-of-run compilation of a transient analysis. Transient() pays its
// pattern-compilation and symbolic-analysis costs lazily, inside the
// first time step of the run; CompileTransient moves them to an explicit
// compile step by replaying the engine's own first assembly — same
// initial state, same attempted step size, same stamp order — and
// warming every block's solver on those exact values (linsolve.Warmer).
//
// Bit-identity: the warm factorization runs on the very matrix values
// the run's first step will assemble, so the run's first numeric
// refactorization reproduces the uncompiled path's full factorization
// bit-for-bit (same pivot order, chosen from the same values) and every
// waveform sample is identical. Only the SolveStats amortization
// counters shift: the first solve counts as NumericRefactor instead of
// FullFactor. Flop accounting and Stats are warm-neutral: compile work
// is charged to neither Stats nor the caller's flop counter.
//
// The block-granular surface (WarmBlocks, SetBlockSolver, BlockSolver)
// exists for the hierarchical compiler (internal/hier): it warms one
// representative block per subcircuit master, extracts the solver's
// template (linsolve.TemplateOf), installs clones into the sibling
// instances, and only then warms those — turning per-instance symbolic
// analysis into a per-master cost.

import (
	"fmt"

	"nanosim/internal/circuit"
	"nanosim/internal/linsolve"
	"nanosim/internal/part"
	"nanosim/internal/stamp"
)

// CompiledTransient is a transient run compiled ahead of execution. It
// is single-use: Run consumes the prepared engine state.
type CompiledTransient struct {
	// Sys is the stamped global system (recording and error control).
	Sys *stamp.System
	// Par is the partition driving the torn-block engine; nil when the
	// monolithic engine was selected (no partition requested, or the
	// partition degenerated to a single block).
	Par *part.Partition

	opt    Options
	pe     *partEngine
	me     *engine
	warmH  float64 // first attempted step, fixed at seed time
	seeded bool
	ran    bool
}

// CompileTransient compiles ckt for one transient run: engine
// construction plus a full warm of every block. This is the flat
// reference path — hier.CompileTransient produces the same object while
// sharing compiled solver state across subcircuit instances.
func CompileTransient(ckt *circuit.Circuit, opt Options) (*CompiledTransient, error) {
	c, err := NewCompiledTransient(ckt, opt)
	if err != nil {
		return nil, err
	}
	if err := c.WarmBlocks(nil); err != nil {
		return nil, err
	}
	return c, nil
}

// NewCompiledTransient constructs the engine Transient would run —
// same partition dispatch, same degenerate-partition fallback — without
// warming any solver. Callers that want custom per-block solvers
// (internal/hier) install them with SetBlockSolver and then WarmBlocks.
func NewCompiledTransient(ckt *circuit.Circuit, opt Options) (*CompiledTransient, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	sys, err := stamp.NewSystem(ckt)
	if err != nil {
		return nil, err
	}
	if opt.Partition != nil {
		p, err := part.Build(ckt, sys, *opt.Partition)
		if err != nil {
			return nil, err
		}
		if len(p.Blocks) > 1 {
			return newCompiledPartition(sys, p, opt)
		}
		// Degenerate single-block partition: the monolithic engine is
		// the same computation without the tear bookkeeping.
	}
	e, err := newEngine(sys, opt)
	if err != nil {
		return nil, err
	}
	return &CompiledTransient{Sys: sys, opt: opt, me: e}, nil
}

// CompilePartition constructs the torn-block engine over a partition the
// caller already built (part.Structure + Materialize/Adopt + Finish),
// unwarmed. opt is defaulted here; opt.Partition is not re-consulted —
// the supplied partition wins.
func CompilePartition(ckt *circuit.Circuit, sys *stamp.System, p *part.Partition, opt Options) (*CompiledTransient, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	_ = ckt // the global system and partition carry everything the engine needs
	if len(p.Blocks) < 2 {
		return nil, fmt.Errorf("core: CompilePartition needs >= 2 blocks, got %d", len(p.Blocks))
	}
	return newCompiledPartition(sys, p, opt)
}

func newCompiledPartition(sys *stamp.System, p *part.Partition, opt Options) (*CompiledTransient, error) {
	pe, err := newPartEngine(sys, p, opt)
	if err != nil {
		return nil, err
	}
	return &CompiledTransient{Sys: sys, Par: p, opt: opt, pe: pe}, nil
}

// NumBlocks reports the number of independently solvable blocks: the
// partition's block count, or 1 for the monolithic engine.
func (c *CompiledTransient) NumBlocks() int {
	if c.pe != nil {
		return len(c.pe.blocks)
	}
	return 1
}

// BlockDim reports block bi's system dimension.
func (c *CompiledTransient) BlockDim(bi int) int {
	if c.pe != nil {
		return c.pe.blocks[bi].sys.Dim()
	}
	return c.me.dim
}

// BlockSolver returns block bi's solver (the monolithic solver for
// bi=0 when unpartitioned). After WarmBlocks it is compiled and
// factored — ready for linsolve.TemplateOf.
func (c *CompiledTransient) BlockSolver(bi int) linsolve.Solver {
	if c.pe != nil {
		return c.pe.blocks[bi].sol
	}
	return c.me.sol
}

// SetBlockSolver replaces block bi's solver before it is warmed or run.
// The replacement must match the block dimension. Replacing a solver
// that was already warmed discards that warm work; hier installs
// template clones strictly before warming the blocks they serve.
func (c *CompiledTransient) SetBlockSolver(bi int, s linsolve.Solver) error {
	if c.ran {
		return fmt.Errorf("core: compiled transient already ran")
	}
	want := c.BlockDim(bi)
	if s.N() != want {
		return fmt.Errorf("core: block %d solver dimension %d, want %d", bi, s.N(), want)
	}
	if c.pe != nil {
		c.pe.blocks[bi].sol = s
	} else {
		c.me.sol = s
	}
	return nil
}

// WarmBlocks stamps the first assembly of the selected blocks (nil
// selects all) into their solvers and warms each solver that supports
// it (linsolve.Warmer; the dense backend is history-free and needs no
// warm). The first call seeds device histories and fixes the first
// attempted step; every call replays assemblies at that exact step, so
// warming is idempotent and order-independent across calls.
func (c *CompiledTransient) WarmBlocks(idx []int) error {
	if c.ran {
		return fmt.Errorf("core: compiled transient already ran")
	}
	if c.me != nil {
		return c.warmMonolithic()
	}
	e := c.pe
	defer muteFlops(&e.opt)()
	if !c.seeded {
		saved := e.stats
		e.seedTearState()
		e.stats = saved
		c.warmH, _ = stepAttempt(e.brk, c.opt.TStart, c.opt.HInit, c.opt.HMin)
		e.predictTears(c.warmH)
		c.seeded = true
	}
	if idx == nil {
		idx = indices(len(e.blocks))
	}
	for _, bi := range idx {
		b := e.blocks[bi]
		// Seed only what this warm touches: device histories are a pure
		// function of the initial state, re-derived in full by run().
		saved := e.stats
		e.seedBlockDevices(b)
		e.stats = saved
		e.assembleBlock(b, c.opt.TStart, c.warmH)
		w, ok := b.sol.(linsolve.Warmer)
		if !ok {
			continue
		}
		if err := w.Warm(); err != nil {
			return fmt.Errorf("core: compile: block %d warm: %w", bi, err)
		}
	}
	return nil
}

// warmMonolithic is WarmBlocks for the unpartitioned engine: one
// assembly and one warm.
func (c *CompiledTransient) warmMonolithic() error {
	if c.seeded {
		return nil
	}
	e := c.me
	defer muteFlops(&e.opt)()
	saved := e.stats
	e.seedDeviceState()
	e.stats = saved
	c.warmH, _ = stepAttempt(e.brk, c.opt.TStart, c.opt.HInit, c.opt.HMin)
	e.assemble(c.opt.TStart, c.warmH)
	if w, ok := e.sol.(linsolve.Warmer); ok {
		if err := w.Warm(); err != nil {
			return fmt.Errorf("core: compile warm: %w", err)
		}
	}
	c.seeded = true
	return nil
}

// muteFlops detaches the engine's flop counter until the returned
// function restores it. Compile work is charged to no counter, so a
// compiled run leaves on the caller's counter exactly what the
// uncompiled run does.
func muteFlops(o *Options) (restore func()) {
	fc := o.FC
	o.FC = nil
	return func() { o.FC = fc }
}

// Run executes the compiled transient. Single-use: the run consumes the
// engine state; compile again for another run.
func (c *CompiledTransient) Run() (*Result, error) {
	if c.ran {
		return nil, fmt.Errorf("core: compiled transient already ran; compile again to rerun")
	}
	c.ran = true
	if c.pe != nil {
		return c.pe.run()
	}
	return c.me.run()
}
