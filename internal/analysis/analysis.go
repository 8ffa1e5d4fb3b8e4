// Package analysis is where an analysis kind meets its engine: Spec
// names one kind and carries that engine's options, and Run is the one
// switch from a kind to its engine call. Every surface runs through it:
// the CLI, the golden runner and nanosimd for single runs, and
// internal/vary for every trial of a batch (vary.Job is a Spec), so a
// trial runs exactly what a single run of the same options runs.
//
// Mapping deck cards and surface overrides onto a Spec lives one layer
// up, in internal/pipeline; this package knows no deck and no surface.
package analysis

import (
	"context"
	"fmt"

	"nanosim/internal/acan"
	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/hier"
	"nanosim/internal/linsolve"
	"nanosim/internal/sde"
	"nanosim/internal/setsim"
	"nanosim/internal/trace"
	"nanosim/internal/wave"
)

// Job is the part of a Spec a batch trial can run (vary.Job): a
// transient, an operating point, an Euler-Maruyama path or a
// single-electron kMC transient.
type Job struct {
	// Analysis is the kind: "tran" (SWEC transient), "op" (SWEC DC
	// operating point), "em" (one Euler-Maruyama path), "set" (one
	// single-electron kinetic Monte Carlo transient), or, configured by
	// Spec's own fields, "dc" (SWEC DC sweep), "ac" (small-signal sweep)
	// or "setmap" (Coulomb-diamond map).
	Analysis string
	// Tran configures "tran".
	Tran core.Options
	// OP configures "op".
	OP core.DCOptions
	// EM configures "em".
	EM sde.Options
	// SET configures "set".
	SET setsim.Options
}

// Spec is one engine run: the analysis kind and its engine's options.
// Only the options of the selected kind are read.
type Spec struct {
	Job
	// DC configures "dc".
	DC Sweep
	// AC configures "ac".
	AC acan.Options
	// Map configures "setmap".
	Map setsim.MapOptions
	// Ctx (nil = never canceled) and Solver (nil = each engine's
	// default backend) replace the Ctx and Solver of the selected
	// kind's options: the caller, not the deck, owns cancellation and
	// solver reuse.
	Ctx    context.Context
	Solver linsolve.Factory
}

// Sweep is a DC sweep: source Src stepped over [From, To] in Points
// points, with Device's branch recorded as v(dev)/i(dev) when set.
type Sweep struct {
	Src      string
	From, To float64
	Points   int
	Device   string
	Options  core.DCOptions
}

// Output is what one Run produced: the waves every kind records (a
// single-sample series per node for "op"), and the engine's own result
// where a caller formats more than the waves. Only the selected kind's
// result is set.
type Output struct {
	Waves *wave.Set
	Tran  *core.Result
	OP    *core.DCResult
	AC    *acan.Result
	EM    *sde.Result
	SET   *setsim.Result
	Map   *setsim.MapResult
}

// Run executes s on ckt.
func Run(ckt *circuit.Circuit, s Spec) (Output, error) {
	var out Output
	var err error
	ctx, solver := s.Ctx, s.Solver
	switch s.Analysis {
	case "op":
		o := s.OP
		o.Ctx, o.Solver = ctx, solver
		if out.OP, err = core.OperatingPoint(ckt, o); err == nil {
			out.Waves = trace.OPWaves(ckt, out.OP.X)
		}
	case "dc":
		o := s.DC.Options
		o.Ctx, o.Solver = ctx, solver
		var r *core.SweepResult
		if r, err = core.Sweep(ckt, s.DC.Src, s.DC.From, s.DC.To, s.DC.Points, s.DC.Device, o); err == nil {
			out.Waves = r.Waves
		}
	case "ac":
		o := s.AC
		o.Ctx, o.DC.Ctx, o.DC.Solver = ctx, ctx, solver
		if out.AC, err = acan.AC(ckt, o); err == nil {
			out.Waves = out.AC.Waves
		}
	case "em":
		o := s.EM
		o.Ctx, o.Solver = ctx, solver
		if out.EM, err = sde.Transient(ckt, o); err == nil {
			out.Waves = out.EM.Waves
		}
	case "set":
		o := s.SET
		o.Ctx, o.Solver = ctx, solver
		if out.SET, err = setsim.Transient(ckt, o); err == nil {
			out.Waves = out.SET.Waves
		}
	case "setmap":
		o := s.Map
		o.Ctx = ctx
		if out.Map, err = setsim.Map(ckt, o); err == nil {
			out.Waves = out.Map.Waves
		}
	case "tran":
		o := s.Tran
		o.Ctx, o.Solver = ctx, solver
		if out.Tran, err = Transient(ckt, o); err == nil {
			out.Waves = out.Tran.Waves
		}
	default:
		err = fmt.Errorf("analysis: unknown kind %q", s.Analysis)
	}
	return out, err
}

// Transient runs a SWEC transient. A partitioned run compiles through
// the hierarchical compiler, which compiles each repeated block once
// and is bit-identical to the flat engine, unless the caller supplies
// its own Solver. hier swaps member blocks' solvers for clones of a
// donor's compiled template, which would bypass a caller's solver: the
// call-sequence linsolve.SeqCache that nanosimd and vary hand in to
// carry compiled patterns from one run to the next. Those runs, and
// every monolithic one, take core.Transient.
func Transient(ckt *circuit.Circuit, opt core.Options) (*core.Result, error) {
	if opt.Partition == nil || opt.Solver != nil {
		return core.Transient(ckt, opt)
	}
	ct, _, err := hier.CompileTransient(ckt, opt)
	if err != nil {
		return nil, err
	}
	return ct.Run()
}
