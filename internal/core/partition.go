package core

// The partitioned SWEC driver: one stamped system + compiled-pattern
// solver per tear block (internal/part), a single global adaptive time
// step, Gauss-Jacobi coupling across blocks through their tear-branch
// currents (exact within a block, one-step-lagged across a tear), and a
// per-block activity state so quiescent blocks skip stamping, solving
// and device evaluation entirely — the latency/dormancy exploitation the
// SWEC formulation makes safe (every coupling is a positive conductance
// whose strength the partitioner bounded at tear time).
//
// Time stepping is deliberately global and shared with the monolithic
// engine (localErrorOf / stepBoundOf), so a partitioned run obeys the
// same eq (10)-(12) accuracy contract; the partition changes *where*
// work happens, not the error control. The per-step bookkeeping passes
// — wake checks, error control, state copies, recording — visit only the
// blocks that are awake (plus, for eq (10), those awake at the last
// accepted step) and the inputs that changed: every other row is
// bit-frozen, and a frozen row or device contributes exactly nothing to
// those passes, so skipping it changes no waveform sample, state or step
// decision.

import (
	"fmt"
	"math"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/part"
	"nanosim/internal/stamp"
	"nanosim/internal/trace"
)

const (
	// dormFrac scales Eps·vScale into the per-step dormancy threshold: a
	// block may sleep only while every owned unknown moves less than
	// dormFrac·Eps·vScale per accepted step, and any boundary input that
	// drifts past the same threshold (measured against the value the
	// block last solved with, so slow creep accumulates) wakes it.
	dormFrac = 0.05
	// dormantAfter is the number of consecutive quiet accepted steps a
	// block must string together before it may sleep. The streak guards
	// the turning points of autonomous oscillators, where dV/dt dips
	// through zero for a step or two without the block being done.
	dormantAfter = 4
)

// tearStamp is one block-side half of a torn branch, precompiled to the
// block's local row and the remote voltage source it reads.
type tearStamp struct {
	tear      int // index into part.Partition.Tears
	local     int // block row of the local terminal
	remoteRow int // global row of the remote terminal
	// src/sign are set when the remote terminal is stiff (pinned by a
	// grounded voltage source): the remote voltage at t+h is then
	// sign·W(t+h), exactly, instead of the previous-step value.
	src  *circuit.VSource
	sign float64
}

// pBlock is the per-run state of one partition block.
type pBlock struct {
	blk   *part.Block
	sys   *stamp.System
	sol   linsolve.Solver
	based bool // sol holds this run's constant stamps as its base (stampBase)

	rhs              []float64
	xb, xbPrev, xbNe []float64 // gathered previous states and the solve target
	capI             []float64

	// Per-device history mirroring the monolithic engine, indexed by the
	// block system's device order.
	ttGeq, ttDG []float64
	fetGeq      []float64

	tstamps []tearStamp

	// rows lists the global rows the block owns, and scan the node rows
	// among them plus every global device with a terminal on them — the
	// block's share of the awake-set passes (indexBlockRows).
	rows []int
	scan scanSet

	// Dormancy state. Source values split by physical kind: voltage-like
	// inputs (own voltage sources, stiff tear remotes) compare against
	// the absolute volt-scaled threshold, current sources against a
	// relative one — a current delta has no fixed voltage meaning, and
	// through a high-impedance node a small absolute delta can be a
	// large voltage.
	dormant bool
	quiet   int       // consecutive accepted steps below dormTol
	bndRows []int     // global rows read as boundary inputs
	bndVal  []float64 // boundary values applied at the last assembly
	vSrcs   []device.Waveform
	vSrcVal []float64 // voltage-source values applied at the last assembly
	iSrcs   []device.Waveform
	iSrcVal []float64 // current-source values applied at the last assembly
	brk     *breakSet // breakpoints of internal + stiff-remote sources

	// Wake state (wake.go), built by run(): the boundary inputs of other
	// blocks that read this block's rows, whether a source input can
	// move (is not device.DC), and, while asleep, the next breakpoint
	// (-Inf once a boundary input drifted).
	readers []bndReader
	movable bool
	wakeAt  float64
}

// partEngine integrates a torn circuit from TStart to TStop.
type partEngine struct {
	sys      *stamp.System // global MNA view (recording, error control)
	opt      Options
	par      *part.Partition
	blocks   []*pBlock
	dormancy bool

	x, xPrev, xNew []float64 // global accepted states and step target
	xTrial         []float64 // corrector-pass snapshot of xNew
	hPrev          float64

	// Tear-device history and per-attempt predicted conductances,
	// indexed by tear order.
	tearGeq, tearDG, tearGPred []float64

	brk     *breakSet
	vScale  float64
	dormTol float64

	// ttTears lists the tears through a two-terminal device, the only
	// ones with per-step state (a resistor tear's conductance is fixed).
	ttTears []int

	stats      Stats
	rec        *trace.Recorder
	startFlops flop.Snapshot

	// Awake-set bookkeeping, reused every step and kept in block order:
	// active/activeIdx are the blocks awake in this attempt, wasIdx those
	// awake at the last accepted step, scanIdx the union (the eq (10)
	// scan), and awakeRows the rows accepted from the awake blocks.
	// mergeIdx is scratch for merging newly woken blocks into activeIdx.
	active                     []bool
	activeIdx, scanIdx, wasIdx []int
	mergeIdx                   []int
	awakeRows                  []int

	// Wake bookkeeping (wake.go): the blocks woken in this attempt, the
	// dormant blocks with a source input that can move, and the dormant
	// blocks by next breakpoint.
	woken    []int
	polled   []int
	sleeping sleepHeap
	// afterWake, when set, runs after every wake pass; the wake-set test
	// checks the awake set against a full scan there.
	afterWake func(t, h float64)
}

func newPartEngine(sys *stamp.System, p *part.Partition, opt Options) (*partEngine, error) {
	e := &partEngine{sys: sys, opt: opt, par: p, dormancy: !p.Opt.NoDormancy}
	x0, err := sys.InitialState(opt.IC)
	if err != nil {
		return nil, err
	}
	e.x = x0
	e.xPrev = append([]float64(nil), x0...)
	e.xNew = make([]float64, sys.Dim())
	e.xTrial = make([]float64, sys.Dim())
	e.vScale = vScaleOf(sys, opt, e.x)
	e.dormTol = dormFrac * opt.Eps * e.vScale
	e.brk = newBreakSet(opt.TStart, opt.TStop)
	e.brk.addSources(sys)
	e.brk.seal()
	// The recorder is built lazily in run(): on a large deck it allocates
	// one series per node, which belongs to the run, not the compile.

	nt := len(p.Tears)
	e.tearGeq = make([]float64, nt)
	e.tearDG = make([]float64, nt)
	e.tearGPred = make([]float64, nt)
	for i := range p.Tears {
		if p.Tears[i].TT != nil {
			e.ttTears = append(e.ttTears, i)
		}
	}

	e.blocks = make([]*pBlock, 0, len(p.Blocks))
	for _, blk := range p.Blocks {
		b := &pBlock{
			blk:    blk,
			sys:    blk.Sys,
			sol:    opt.Solver(blk.Sys.Dim(), opt.FC),
			rhs:    make([]float64, blk.Sys.Dim()),
			xb:     make([]float64, blk.Sys.Dim()),
			xbPrev: make([]float64, blk.Sys.Dim()),
			xbNe:   make([]float64, blk.Sys.Dim()),
			capI:   make([]float64, len(blk.Sys.Capacitors())),
			ttGeq:  make([]float64, len(blk.Sys.TwoTerms())),
			ttDG:   make([]float64, len(blk.Sys.TwoTerms())),
			fetGeq: make([]float64, len(blk.Sys.FETs())),
		}
		b.brk = newBreakSet(opt.TStart, opt.TStop)
		b.brk.addSources(blk.Sys)
		b.tstamps = make([]tearStamp, 0, len(blk.Tears))
		// Exact-size the boundary and source-input tables: a block may
		// carry thousands of tears, and growth-doubling those appends
		// across every block re-copies megabytes at compile time.
		nStiff := 0
		for _, ti := range blk.Tears {
			tr := &p.Tears[ti]
			if (tr.BlockA == blk.Index && tr.StiffB) || (tr.BlockA != blk.Index && tr.StiffA) {
				nStiff++
			}
		}
		b.vSrcs = make([]device.Waveform, 0, nStiff+len(blk.Sys.VSources()))
		b.bndRows = make([]int, 0, len(blk.Tears)-nStiff+len(blk.RemoteGates))
		for _, ti := range blk.Tears {
			tr := &p.Tears[ti]
			ts := tearStamp{tear: ti}
			if tr.BlockA == blk.Index {
				ts.local = blk.Local[tr.A]
				ts.remoteRow = tr.B
				if tr.StiffB {
					ts.src, ts.sign = tr.SrcB, tr.SignB
				}
			} else {
				ts.local = blk.Local[tr.B]
				ts.remoteRow = tr.A
				if tr.StiffA {
					ts.src, ts.sign = tr.SrcA, tr.SignA
				}
			}
			if ts.src != nil {
				// A stiff remote is tracked as a waveform input (its
				// value and breakpoints), not as a neighbor voltage.
				b.vSrcs = append(b.vSrcs, ts.src.W)
				b.brk.addWave(ts.src.W)
			} else {
				b.bndRows = append(b.bndRows, ts.remoteRow)
			}
			b.tstamps = append(b.tstamps, ts)
		}
		for _, rg := range blk.RemoteGates {
			b.bndRows = append(b.bndRows, rg.GlobalRow)
		}
		for _, s := range blk.Sys.VSources() {
			b.vSrcs = append(b.vSrcs, s.V.W)
		}
		for _, s := range blk.Sys.ISources() {
			b.iSrcs = append(b.iSrcs, s.I.W)
		}
		b.bndVal = make([]float64, len(b.bndRows))
		b.vSrcVal = make([]float64, len(b.vSrcs))
		b.iSrcVal = make([]float64, len(b.iSrcs))
		b.brk.seal()
		e.blocks = append(e.blocks, b)
	}
	e.stats.Blocks = len(e.blocks)
	e.stats.Tears = nt
	return e, nil
}

// indexBlockRows builds each block's awake-set lists: the global rows it
// owns, the node rows among them, and the global two-terminal devices
// and FETs with a terminal on those rows. A device spanning blocks (a
// torn two-terminal, a FET with a remote gate) is listed under every
// block it touches, so the awake blocks' lists cover every device whose
// voltages can move in a step. Like the recorder, the lists serve only
// the run and are built by it, not at compile time.
func (e *partEngine) indexBlockRows() {
	nodes := e.sys.NodeCount()
	for _, b := range e.blocks {
		b.rows = make([]int, 0, len(b.blk.Rows))
		b.scan.nodes = make([]int, 0, b.sys.NodeCount())
		for r, owned := range b.blk.Owned {
			if !owned {
				continue
			}
			row := b.blk.Rows[r]
			b.rows = append(b.rows, row)
			if row < nodes {
				b.scan.nodes = append(b.scan.nodes, row)
			}
		}
		b.scan.tts = make([]int, 0, len(b.sys.TwoTerms()))
		b.scan.fets = make([]int, 0, len(b.sys.FETs()))
	}
	var buf []*pBlock
	for k, tt := range e.sys.TwoTerms() {
		buf = e.owners(buf, tt.IA, tt.IB)
		for _, b := range buf {
			b.scan.tts = append(b.scan.tts, k)
		}
	}
	for k, f := range e.sys.FETs() {
		buf = e.owners(buf, f.ID, f.IG, f.IS)
		for _, b := range buf {
			b.scan.fets = append(b.scan.fets, k)
		}
	}
}

// owners returns the distinct blocks owning the given global node rows
// (ground, -1, has none), reusing buf.
func (e *partEngine) owners(buf []*pBlock, rows ...int) []*pBlock {
	buf = buf[:0]
next:
	for _, r := range rows {
		if r < 0 {
			continue
		}
		b := e.blocks[e.par.NodeBlock[r]]
		for _, o := range buf {
			if o == b {
				continue next
			}
		}
		buf = append(buf, b)
	}
	return buf
}

// gather copies the rows of src selected by rows into dst.
func gather(dst, src []float64, rows []int) {
	for i, r := range rows {
		dst[i] = src[r]
	}
}

// trapNow mirrors the monolithic damped start.
func (e *partEngine) trapNow() bool { return e.opt.Trapezoidal && e.stats.Steps > 0 }

// seedDeviceState initializes device histories from the initial state.
func (e *partEngine) seedDeviceState() {
	for _, b := range e.blocks {
		e.seedBlockDevices(b)
	}
	e.seedTearState()
}

// seedBlockDevices initializes one block's device histories from the
// initial state; WarmBlocks uses it to seed exactly the blocks it warms
// (the hierarchical compiler warms a handful of donors out of
// thousands, and seeding is idempotent — run() re-seeds everything).
func (e *partEngine) seedBlockDevices(b *pBlock) {
	gather(b.xb, e.x, b.blk.Rows)
	for k, tt := range b.sys.TwoTerms() {
		v := b.sys.Branch(b.xb, tt.Elem.A, tt.Elem.B)
		b.ttGeq[k], b.ttDG[k] = e.evalGeqSlope(tt.Elem.Model, v)
	}
	for k, f := range b.sys.FETs() {
		vgs := b.sys.Branch(b.xb, f.Elem.G, f.Elem.S)
		vds := b.sys.Branch(b.xb, f.Elem.D, f.Elem.S)
		b.fetGeq[k] = f.Elem.Model.GeqDS(vgs, vds)
		chargeDeviceCost(&e.stats, e.opt.FC, f.Elem.Model.Cost(), 1)
	}
}

// seedTearState initializes the engine-wide tear conductances.
func (e *partEngine) seedTearState() {
	for i := range e.par.Tears {
		tr := &e.par.Tears[i]
		if tr.TT == nil {
			e.tearGPred[i] = tr.R.Conductance()
			continue
		}
		v := e.x[tr.A] - e.x[tr.B]
		e.tearGeq[i], e.tearDG[i] = e.evalGeqSlope(tr.TT.Model, v)
	}
}

// evalGeqSlope mirrors the monolithic fused evaluation.
func (e *partEngine) evalGeqSlope(m device.IV, v float64) (geq, dg float64) {
	if e.opt.NoPredictor {
		geq = device.Geq(m, v)
	} else {
		geq, dg = device.GeqAndSlope(m, v)
	}
	chargeDeviceCost(&e.stats, e.opt.FC, m.Cost(), 1)
	return geq, dg
}

// predictTT is the eq (5) predictor for block device k over step h.
func (e *partEngine) predictTT(b *pBlock, k int, tt stamp.TwoTermRef, h float64) float64 {
	g := b.ttGeq[k]
	if e.opt.NoPredictor || e.hPrev <= 0 {
		return g
	}
	vNow := b.sys.Branch(b.xb, tt.Elem.A, tt.Elem.B)
	vPrev := b.sys.Branch(b.xbPrev, tt.Elem.A, tt.Elem.B)
	dvdt := (vNow - vPrev) / e.hPrev
	gp := g + 0.5*h*b.ttDG[k]*dvdt
	if fc := e.opt.FC; fc != nil {
		fc.Mul(3)
		fc.Add(2)
		fc.Div(1)
	}
	if gp < 0.01*g {
		gp = 0.01 * g
	}
	return gp
}

// predictFET mirrors the monolithic finite-difference FET predictor.
func (e *partEngine) predictFET(b *pBlock, k int, f stamp.FETRef, h float64) float64 {
	g := b.fetGeq[k]
	if e.opt.NoPredictor || e.hPrev <= 0 {
		return g
	}
	vgsPrev := b.sys.Branch(b.xbPrev, f.Elem.G, f.Elem.S)
	vdsPrev := b.sys.Branch(b.xbPrev, f.Elem.D, f.Elem.S)
	gPrev := f.Elem.Model.GeqDS(vgsPrev, vdsPrev)
	chargeDeviceCost(&e.stats, e.opt.FC, f.Elem.Model.Cost(), 1)
	dgdt := (g - gPrev) / e.hPrev
	gp := g + 0.5*h*dgdt
	if fc := e.opt.FC; fc != nil {
		fc.Mul(2)
		fc.Add(2)
		fc.Div(1)
	}
	if gp < 0 {
		gp = 0
	}
	return gp
}

// predictTears fills tearGPred for this attempt from the tear-device
// histories (no model evaluations — the slope was cached on accept).
// Resistor tears keep the constant conductance set at seed time.
func (e *partEngine) predictTears(h float64) {
	for _, i := range e.ttTears {
		tr := &e.par.Tears[i]
		g := e.tearGeq[i]
		if !e.opt.NoPredictor && e.hPrev > 0 {
			vNow := e.x[tr.A] - e.x[tr.B]
			vPrev := e.xPrev[tr.A] - e.xPrev[tr.B]
			dvdt := (vNow - vPrev) / e.hPrev
			gp := g + 0.5*h*e.tearDG[i]*dvdt
			if fc := e.opt.FC; fc != nil {
				fc.Mul(3)
				fc.Add(2)
				fc.Div(1)
			}
			if gp < 0.01*g {
				gp = 0.01 * g
			}
			g = gp
		}
		e.tearGPred[i] = g
	}
}

// iSourceDrifted is the current-source wake criterion: relative to the
// source's own magnitude rather than the volt-scaled dormTol. Through a
// node of conductance g the voltage error of sleeping past a current
// drift ΔI is ΔI/g = (ΔI/I)·V_true, so an Eps-scaled relative bound on
// the current bounds the voltage error Eps-scaled relative to the
// node's true swing — at any impedance.
func (e *partEngine) iSourceDrifted(now, applied float64) bool {
	scale := math.Max(math.Abs(now), math.Abs(applied))
	return math.Abs(now-applied) > dormFrac*e.opt.Eps*scale
}

// assembleBlock stamps block b for the step (t, t+h] and records the
// boundary/source values it is about to solve with.
func (e *partEngine) assembleBlock(b *pBlock, t, h float64) {
	gather(b.xb, e.x, b.blk.Rows)
	gather(b.xbPrev, e.xPrev, b.blk.Rows)
	bs := b.sys
	stampBase(b.sol, bs, e.opt.Gmin, &b.based)
	for k, tt := range bs.TwoTerms() {
		stamp.Stamp2(b.sol, tt.IA, tt.IB, e.predictTT(b, k, tt, h))
	}
	for k, f := range bs.FETs() {
		stamp.Stamp2(b.sol, f.ID, f.IS, e.predictFET(b, k, f, h))
	}
	for i := range b.rhs {
		b.rhs[i] = 0
	}
	bs.StampReactive(b.sol, b.rhs, b.xb, b.capI, h, e.trapNow())
	if fc := e.opt.FC; fc != nil {
		fc.Div(bs.Dim())
		fc.Mul(2 * bs.Dim())
		fc.Add(bs.Dim())
	}
	bs.StampRHS(t+h, b.rhs)
	// Tear half-branches: g on the local diagonal, g·V(remote) as a
	// Norton current. Stiff remotes use the exact source value at t+h;
	// free remotes the previous accepted step (Gauss-Jacobi).
	for _, ts := range b.tstamps {
		g := e.tearGPred[ts.tear]
		b.sol.Add(ts.local, ts.local, g)
		var v float64
		if ts.src != nil {
			v = ts.sign * ts.src.W.At(t+h)
		} else {
			v = e.x[ts.remoteRow]
		}
		b.rhs[ts.local] += g * v
		if fc := e.opt.FC; fc != nil {
			fc.Mul(1)
			fc.Add(1)
		}
	}
	// Record the inputs this solve consumes: the dormancy wake rules
	// compare future inputs against them.
	for i, row := range b.bndRows {
		b.bndVal[i] = e.x[row]
	}
	for j, w := range b.vSrcs {
		b.vSrcVal[j] = w.At(t + h)
	}
	for j, w := range b.iSrcs {
		b.iSrcVal[j] = w.At(t + h)
	}
}

// correctBlock restamps block b with conductances evaluated at the
// trial state (one corrector pass), mirroring the monolithic
// correctAssemble: internal devices and tear conductances read the
// global trial vector xTrial, reactive companions and sources restamp
// unchanged.
func (e *partEngine) correctBlock(b *pBlock, t, h float64, xTrial []float64) {
	gather(b.xbNe, xTrial, b.blk.Rows)
	bs := b.sys
	stampBase(b.sol, bs, e.opt.Gmin, &b.based)
	for _, tt := range bs.TwoTerms() {
		v := bs.Branch(b.xbNe, tt.Elem.A, tt.Elem.B)
		g := device.Geq(tt.Elem.Model, v)
		chargeDeviceCost(&e.stats, e.opt.FC, tt.Elem.Model.Cost(), 1)
		stamp.Stamp2(b.sol, tt.IA, tt.IB, g)
	}
	for _, f := range bs.FETs() {
		vgs := bs.Branch(b.xbNe, f.Elem.G, f.Elem.S)
		vds := bs.Branch(b.xbNe, f.Elem.D, f.Elem.S)
		g := f.Elem.Model.GeqDS(vgs, vds)
		chargeDeviceCost(&e.stats, e.opt.FC, f.Elem.Model.Cost(), 1)
		stamp.Stamp2(b.sol, f.ID, f.IS, g)
	}
	for i := range b.rhs {
		b.rhs[i] = 0
	}
	bs.StampReactive(b.sol, b.rhs, b.xb, b.capI, h, e.trapNow())
	if fc := e.opt.FC; fc != nil {
		fc.Div(bs.Dim())
		fc.Mul(2 * bs.Dim())
		fc.Add(bs.Dim())
	}
	bs.StampRHS(t+h, b.rhs)
	for _, ts := range b.tstamps {
		tr := &e.par.Tears[ts.tear]
		g := e.tearGPred[ts.tear]
		if tr.TT != nil {
			g = device.Geq(tr.TT.Model, xTrial[tr.A]-xTrial[tr.B])
			chargeDeviceCost(&e.stats, e.opt.FC, tr.TT.Model.Cost(), 1)
		}
		b.sol.Add(ts.local, ts.local, g)
		var v float64
		if ts.src != nil {
			v = ts.sign * ts.src.W.At(t+h)
		} else {
			v = e.x[ts.remoteRow]
		}
		b.rhs[ts.local] += g * v
		if fc := e.opt.FC; fc != nil {
			fc.Mul(1)
			fc.Add(1)
		}
	}
}

// refreshBlock re-evaluates block b's device conductances at the newly
// accepted global state (remote gate rows read the neighbor's fresh
// value through the gather).
func (e *partEngine) refreshBlock(b *pBlock) {
	gather(b.xb, e.x, b.blk.Rows)
	for k, tt := range b.sys.TwoTerms() {
		v := b.sys.Branch(b.xb, tt.Elem.A, tt.Elem.B)
		b.ttGeq[k], b.ttDG[k] = e.evalGeqSlope(tt.Elem.Model, v)
	}
	for k, f := range b.sys.FETs() {
		vgs := b.sys.Branch(b.xb, f.Elem.G, f.Elem.S)
		vds := b.sys.Branch(b.xb, f.Elem.D, f.Elem.S)
		b.fetGeq[k] = f.Elem.Model.GeqDS(vgs, vds)
		chargeDeviceCost(&e.stats, e.opt.FC, f.Elem.Model.Cost(), 1)
	}
}

// run integrates from TStart to TStop with the global adaptive step.
//
// Each step runs on the calling goroutine: tear prediction and the
// event-driven wake pass (wake.go), then loops over the awake blocks in
// index order for the block-local passes (assemble and solve, corrector
// passes, capacitor currents, device refresh), with error control,
// dormancy and recording between them. DESIGN.md §13 records why no
// worker pool splits the passes.
func (e *partEngine) run() (*Result, error) {
	opt := e.opt
	if opt.FC != nil {
		e.startFlops = opt.FC.Snapshot()
	}
	t := opt.TStart
	hCruise := opt.HInit
	e.seedDeviceState()
	for _, b := range e.blocks {
		b.based = false
	}
	if e.rec == nil {
		e.rec = trace.NewRecorder(e.sys, opt.RecordCurrents, opt.Probes)
		// Dormant blocks keep their rows bit-frozen; run-length recording
		// turns those thousands of identical samples per series into two.
		e.rec.SetCompress(true)
	}
	e.rec.Sample(t, e.x)
	e.indexBlockRows()
	e.indexWake()
	e.awakeRows = make([]int, 0, len(e.x))
	// From here on xNew equals x on the rows of every block that sits an
	// attempt out: only awake blocks write xNew, x takes exactly those
	// rows at accept, and a block awake in a rejected attempt stays
	// awake in the retry (its dormant flag was cleared).
	copy(e.xNew, e.x)

	for t < opt.TStop-e.brk.tol {
		if err := ctxErr(opt.Ctx); err != nil {
			return nil, fmt.Errorf("core: transient canceled at t=%g: %w", t, err)
		}
		if e.stats.Steps >= opt.MaxSteps {
			return nil, fmt.Errorf("core: exceeded MaxSteps=%d at t=%g", opt.MaxSteps, t)
		}
		h, truncated := stepAttempt(e.brk, t, hCruise, opt.HMin)
		e.predictTears(h)
		e.wake(t, h)
		if err := e.solveAwake(t, h, false); err != nil {
			return nil, err
		}
		// Optional corrector passes (still derivative-free): re-evaluate
		// conductances at the trial state and re-solve each active
		// block, Jacobi-style against a pass-start snapshot.
		for pass := 0; pass < opt.Correctors; pass++ {
			copy(e.xTrial, e.xNew)
			if err := e.solveAwake(t, h, true); err != nil {
				return nil, err
			}
		}
		// Accept/reject on the shared eq (10) proxy.
		if !opt.FixedStep {
			if le := e.localError(h); le > 50*opt.Eps && h > opt.HMin*1.0001 {
				e.stats.Rejected++
				hCruise = math.Max(h/2, opt.HMin)
				continue
			}
		}
		bound := opt.HMax
		if !opt.FixedStep {
			bound = e.stepBound(h)
		}
		// Accept. Capacitor currents advance before Steps does, so the
		// trapezoidal start matches the monolithic engine's.
		for _, bi := range e.activeIdx {
			b := e.blocks[bi]
			gather(b.xbNe, e.xNew, b.blk.Rows)
			b.sys.UpdateCapCurrents(b.capI, b.xb, b.xbNe, h, e.trapNow())
		}
		e.acceptRows()
		e.hPrev = h
		t += h
		e.stats.Steps++
		for _, bi := range e.activeIdx {
			e.refreshBlock(e.blocks[bi])
		}
		e.refreshTears()
		e.rec.SampleRows(t, e.x, e.awakeRows)
		e.updateDormancy(t, h)
		if opt.FixedStep {
			hCruise = opt.HInit
		} else {
			base := h
			if truncated && hCruise > h {
				base = hCruise
			}
			hCruise = math.Min(math.Min(bound, 2*base), opt.HMax)
			hCruise = math.Max(hCruise, opt.HMin)
		}
	}
	e.rec.Flush()
	if opt.FC != nil {
		e.stats.Flops = opt.FC.Snapshot().Sub(e.startFlops)
	}
	return &Result{Waves: e.rec.Set(), Stats: e.stats, X: e.x}, nil
}

// solveAwake is one solve pass over the awake blocks for the step
// (t, t+h]: each assembles — at the predicted conductances, or for a
// corrector pass at the trial state e.xTrial — solves, and scatters its
// owned rows into e.xNew. A failed block does not end the pass: every
// awake block runs, then the first failure in block order is returned,
// so the work charged to Stats and the flop counter does not depend on
// which block failed.
func (e *partEngine) solveAwake(t, h float64, corrector bool) error {
	kind := ""
	if corrector {
		kind = "corrector "
	}
	var first error
	for _, bi := range e.activeIdx {
		b := e.blocks[bi]
		if corrector {
			e.correctBlock(b, t, h, e.xTrial)
		} else {
			e.assembleBlock(b, t, h)
		}
		if err := e.solveBlock(bi, t, kind); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// solveBlock solves block bi's assembled system and scatters its owned
// rows into e.xNew; kind prefixes the failure messages.
func (e *partEngine) solveBlock(bi int, t float64, kind string) error {
	b := e.blocks[bi]
	if err := b.sol.Solve(b.rhs, b.xbNe); err != nil {
		return fmt.Errorf("core: singular %sblock %d at t=%g: %w", kind, bi, t, err)
	}
	e.stats.Solves++
	e.stats.BlockSolves++
	if !allFinite(b.xbNe) {
		return fmt.Errorf("core: non-finite %ssolution in block %d at t=%g", kind, bi, t)
	}
	for r, owned := range b.blk.Owned {
		if owned {
			e.xNew[b.blk.Rows[r]] = b.xbNe[r]
		}
	}
	return nil
}

// localError is the eq (10) proxy over the scanIdx blocks. Every other
// node row is frozen in x, xPrev and xNew, where eq (10) reads exactly 0,
// so the maximum equals the full scan's.
func (e *partEngine) localError(h float64) float64 {
	worst := 0.0
	for _, bi := range e.scanIdx {
		le := localErrorOf(e.blocks[bi].scan.nodes, e.x, e.xPrev, e.xNew, e.hPrev, h, e.vScale, e.opt.FC)
		if le > worst {
			worst = le
		}
	}
	return worst
}

// stepBound is the eqs (11)-(12) bound over the awake blocks. A node or
// device of the other blocks holds equal voltages in x and xNew, so it
// has rate 0 and bounds nothing in the full scan either.
func (e *partEngine) stepBound(h float64) float64 {
	bound := e.opt.HMax
	for _, bi := range e.activeIdx {
		bound = stepBoundOf(e.sys, &e.blocks[bi].scan, e.x, e.xNew, h, e.opt.Eps, bound, e.vScale, e.opt.FC)
	}
	return bound
}

// acceptRows advances the accepted state over the rows that can have
// moved — xPrev <- x over the scanIdx blocks, then x <- xNew over the
// awake ones, whose rows it lists in awakeRows for the recorder —
// remembers this step's awake set and checks the dormant readers of the
// rows it wrote for boundary drift. Every other row already holds one
// value in all three vectors.
func (e *partEngine) acceptRows() {
	for _, bi := range e.scanIdx {
		for _, r := range e.blocks[bi].rows {
			e.xPrev[r] = e.x[r]
		}
	}
	e.awakeRows = e.awakeRows[:0]
	for _, bi := range e.activeIdx {
		e.awakeRows = append(e.awakeRows, e.blocks[bi].rows...)
	}
	for _, r := range e.awakeRows {
		e.x[r] = e.xNew[r]
	}
	e.wasIdx = append(e.wasIdx[:0], e.activeIdx...)
	e.checkReaders()
}

// refreshTears re-evaluates tear-device conductances at the accepted
// state when either adjacent block was active (both-dormant tears are
// frozen by construction).
func (e *partEngine) refreshTears() {
	for _, i := range e.ttTears {
		tr := &e.par.Tears[i]
		if !e.active[tr.BlockA] && !e.active[tr.BlockB] {
			continue
		}
		v := e.x[tr.A] - e.x[tr.B]
		e.tearGeq[i], e.tearDG[i] = e.evalGeqSlope(tr.TT.Model, v)
	}
}

// updateDormancy advances each active block's quiet streak after an
// accepted step of size h, ending at t, and puts it to sleep once the
// streak is long enough; sleepers leave activeIdx.
func (e *partEngine) updateDormancy(t, h float64) {
	if !e.dormancy {
		return
	}
	awake := e.activeIdx[:0]
	for _, bi := range e.activeIdx {
		b := e.blocks[bi]
		maxDx := 0.0
		for _, row := range b.rows {
			if d := math.Abs(e.x[row] - e.xPrev[row]); d > maxDx {
				maxDx = d
			}
		}
		// Rate criterion: the block counts as quiet only if its realized
		// dV/dt would move it less than dormTol even across a full HMax
		// step. A per-step |dx| test would misfire whenever the *global*
		// step is small for someone else's sake — a slewing block then
		// shows a tiny per-step move despite a large rate.
		if maxDx/h*e.opt.HMax < e.dormTol {
			b.quiet++
		} else {
			b.quiet = 0
		}
		if b.quiet < dormantAfter {
			awake = append(awake, bi)
			continue
		}
		e.sleep(bi, t)
		if e.opt.Trapezoidal {
			// A quiescent capacitor carries ~no current; zeroing the
			// trapezoidal state kills the ±i companion ringing that
			// would otherwise be replayed stale on wake.
			for i := range b.capI {
				b.capI[i] = 0
			}
		}
	}
	e.activeIdx = awake
}
