package vary

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"nanosim/internal/analysis"
	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/randx"
	"nanosim/internal/trace"
	"nanosim/internal/wave"
)

// Job selects the analysis every trial runs: "tran" (SWEC transient,
// the default), "op" (SWEC DC operating point), "em" (one
// Euler-Maruyama path per trial, combining parameter and input
// uncertainty) or "set" (one single-electron kinetic Monte Carlo
// transient per trial). A trial runs it through analysis.Run, exactly
// as a single run of the same options. The options' Solver and Ctx are
// ignored: the runner supplies the per-worker reusing factory and
// threads the batch context (Options.Ctx) in. For "em" and "set" the
// per-trial seed replaces the options' Seed: trial t draws from
// randx.Split(batch seed, t), so the batch is bit-identical at any
// worker count.
type Job = analysis.Job

// jobDefaults normalizes the analysis keyword.
func jobDefaults(j Job) (Job, error) {
	switch strings.ToLower(j.Analysis) {
	case "", "tran":
		j.Analysis = "tran"
	case "op":
		j.Analysis = "op"
	case "em":
		j.Analysis = "em"
	case "set":
		j.Analysis = "set"
	default:
		return j, fmt.Errorf("vary: unknown analysis %q (want tran, op, em or set)", j.Analysis)
	}
	return j, nil
}

// baseSeed is the nominal-run seed of the job's stochastic engine (the
// value per-trial seeds replace).
func baseSeed(j Job) uint64 {
	if j.Analysis == "set" {
		return j.SET.Seed
	}
	return j.EM.Seed
}

// runJob executes the job on ckt with the given solver factory. ctx,
// when non-nil, cancels the underlying analysis mid-run. emSeed replaces
// the engine seed for "em" and "set" jobs and is ignored otherwise.
func runJob(ctx context.Context, j Job, ckt *circuit.Circuit, solver linsolve.Factory, emSeed uint64) (*wave.Set, error) {
	j.EM.Seed, j.SET.Seed = emSeed, emSeed
	out, err := analysis.Run(ckt, analysis.Spec{Job: j, Ctx: ctx, Solver: solver})
	return out.Waves, err
}

// worker owns one goroutine's reusable solver state. The base circuit is
// shared read-only; every trial works on its own clone.
//
// Solvers are cached by factory-call ORDER, not by dimension
// (linsolve.SeqCache): every trial runs the identical job on a clone of
// the same circuit, so its engine requests solvers in an identical
// sequence, and sequence keying lets a partitioned transient reuse each
// tear block's compiled pattern and symbolic LU across trials. A call
// whose dimension diverges from the cached sequence (a perturbed
// circuit partitioning differently, say) gets a fresh uncached solver
// and flags the run, so postTrial restores the nominal-warmed state;
// the divergence is itself deterministic — it depends only on the
// trial's own clone — so results stay independent of worker scheduling.
type worker struct {
	base *circuit.Circuit
	job  Job
	ctx  context.Context // batch cancellation (may be nil)

	seq     linsolve.SeqCache
	warmLen int   // cache length after the nominal warm-up
	ffBase  []int // FullFactor count at warm-up, per solver
	stats   linsolve.SolveStats
	broken  bool // re-warm failed: stop reusing, run every trial cold
}

func newWorker(base *circuit.Circuit, job Job, factory linsolve.Factory, ctx context.Context) *worker {
	return &worker{base: base, job: job, seq: linsolve.SeqCache{Base: factory}, ctx: ctx}
}

// beginRun resets the call cursor before a job run replays the sequence.
func (w *worker) beginRun() { w.seq.Begin() }

// solver is the caching linsolve.Factory handed to every trial's engine.
func (w *worker) solver(n int, fc *flop.Counter) linsolve.Solver {
	return w.seq.Factory(n, fc)
}

// warm runs the nominal job once so every reused solver's compiled
// pattern and pivot order come from the unperturbed circuit — a fixed
// reference no trial outcome can influence.
func (w *worker) warm() {
	w.beginRun()
	if _, err := runJob(w.ctx, w.job, w.base.Clone(), w.solver, baseSeed(w.job)); err != nil {
		// The nominal circuit was validated by the probe run; if it
		// fails here, stop reusing state rather than guessing.
		w.drop()
		w.broken = true
		return
	}
	w.warmLen = w.seq.Len()
	w.ffBase = w.ffBase[:0]
	for _, s := range w.seq.Solvers() {
		ff := 0
		if r, ok := s.(linsolve.Refactorable); ok && linsolve.CarriesPivotOrder(s) {
			ff = r.SolveStats().FullFactor
		}
		w.ffBase = append(w.ffBase, ff)
	}
}

// drop accumulates and discards all cached solvers.
func (w *worker) drop() {
	w.collect()
	w.seq.Drop()
	w.ffBase = nil
	w.warmLen = 0
}

// collect folds the cached solvers' stats into the worker total.
func (w *worker) collect() {
	for _, s := range w.seq.Solvers() {
		if r, ok := s.(linsolve.Refactorable); ok {
			w.stats.Accumulate(r.SolveStats())
		}
	}
}

// postTrial restores the determinism invariant after a trial: if the
// trial errored, its factory-call sequence diverged from the warmed one,
// it grew the cache past the nominal sequence, or an order-carrying
// solver performed a full factorization (pivot-drift fallback) — then
// some cached state now reflects that trial's values, so it is dropped
// and re-warmed from the nominal circuit before the next trial runs.
func (w *worker) postTrial(failed bool) {
	if w.broken {
		w.drop()
		return
	}
	rewarm := failed || w.seq.Mismatched() || w.seq.Len() > w.warmLen
	if !rewarm {
		for i, s := range w.seq.Solvers() {
			r, ok := s.(linsolve.Refactorable)
			if ok && linsolve.CarriesPivotOrder(s) && r.SolveStats().FullFactor > w.ffBase[i] {
				rewarm = true
				break
			}
		}
	}
	if rewarm {
		w.drop()
		w.warm()
	}
}

// batchCanceled reports a batch context cancellation as the error the
// public entry points return; a nil context never cancels.
func batchCanceled(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("vary: batch canceled: %w", context.Cause(ctx))
}

// trialRun is one unit of batch work: prepare mutates the trial's clone
// (drawing parameters or applying grid values) and returns the trial's
// EM seed.
type trialRun struct {
	index   int
	prepare func(clone *circuit.Circuit) (emSeed uint64, err error)
}

// trialOut is the measured outcome of one trial, held per-index so
// aggregation runs in trial order regardless of worker scheduling.
type trialOut struct {
	err   error
	vals  [][]float64 // [signal][grid point], nil when no envelope grid
	final []float64   // per signal
	min   []float64
	max   []float64
	waves *wave.Set // retained only when requested
}

// batchConfig is the shared setup of MonteCarlo and Sweep.
type batchConfig struct {
	base      *circuit.Circuit
	job       Job
	factory   linsolve.Factory
	workers   int
	signals   []string
	grid      []float64 // resampling times, nil for scalar-only
	keepWaves bool
	ctx       context.Context // batch cancellation (may be nil)
}

// opBatchLanes is the lockstep group width for "op" jobs: consecutive
// trials are batched in fours through core.OperatingPointBatch. The
// grouping is by trial index alone — never by worker schedule — so the
// batch composition (and therefore every result bit) is identical at
// any Workers count.
const opBatchLanes = 4

// groupSize returns the dispatch granularity for the job: op trials go
// out in fixed lockstep groups, everything else one trial at a time.
func groupSize(job Job) int {
	if job.Analysis == "op" {
		return opBatchLanes
	}
	return 1
}

// runBatch executes the trials over a worker pool and returns outcomes
// in trial order plus the summed solver stats.
func runBatch(cfg batchConfig, trials []trialRun) ([]trialOut, linsolve.SolveStats) {
	gs := groupSize(cfg.job)
	groups := (len(trials) + gs - 1) / gs
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > groups {
		workers = groups
	}
	if workers < 1 {
		workers = 1
	}
	outs := make([]trialOut, len(trials))
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total linsolve.SolveStats
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker(cfg.base, cfg.job, cfg.factory, cfg.ctx)
			w.warm()
			for lo := range idx {
				hi := lo + gs
				if hi > len(trials) {
					hi = len(trials)
				}
				runGroup(cfg, w, trials, outs, lo, hi)
			}
			w.collect()
			mu.Lock()
			total.Accumulate(w.stats)
			mu.Unlock()
		}()
	}
	for lo := 0; lo < len(trials); lo += gs {
		// Stop feeding once the batch is canceled; trials already in
		// flight abort through the job context.
		if cfg.ctx != nil && cfg.ctx.Err() != nil {
			break
		}
		idx <- lo
	}
	close(idx)
	wg.Wait()
	return outs, total
}

// runGroup runs the trials [lo, hi): through the lockstep batch path
// when the group qualifies, trial by trial otherwise. A batch that
// cannot finish (unsupported backend, pivot drift, a singular or
// non-converging lane, ...) left the worker's warm solver untouched, so
// the serial redo reproduces the exact scalar outcome per trial.
func runGroup(cfg batchConfig, w *worker, trials []trialRun, outs []trialOut, lo, hi int) {
	if hi-lo >= 2 && cfg.job.Analysis == "op" && w.tryBatchOP(cfg, trials[lo:hi], outs[lo:hi]) {
		return
	}
	for i := lo; i < hi; i++ {
		outs[i] = runTrial(cfg, w, trials[i])
		w.postTrial(outs[i].err != nil)
	}
}

// tryBatchOP attempts one lockstep operating-point batch over the
// group. It only reports success when every lane converged cleanly;
// any other outcome (including a failed prepare) falls back to the
// scalar path, which re-clones and re-perturbs deterministically.
func (w *worker) tryBatchOP(cfg batchConfig, trials []trialRun, outs []trialOut) bool {
	// The warm nominal op run requests exactly one solver; anything else
	// means the cache is cold or broken and the scalar path must decide.
	if w.broken || w.warmLen != 1 || len(w.seq.Solvers()) != 1 {
		return false
	}
	base := w.seq.Solvers()[0]
	clones := make([]*circuit.Circuit, len(trials))
	for c, tr := range trials {
		clone := cfg.base.Clone()
		if _, err := tr.prepare(clone); err != nil {
			return false
		}
		clones[c] = clone
	}
	opt := cfg.job.OP
	opt.Solver = nil // the batch solves against base, never a factory
	opt.Ctx = cfg.ctx
	res, err := core.OperatingPointBatch(clones, base, opt)
	if err != nil {
		return false
	}
	w.stats.Accumulate(res.Solve)
	for c := range trials {
		outs[c] = measure(cfg, trials[c].index, trace.OPWaves(clones[c], res.Lanes[c].X))
	}
	return true
}

// runTrial clones, perturbs, simulates and measures one trial.
func runTrial(cfg batchConfig, w *worker, tr trialRun) trialOut {
	clone := cfg.base.Clone()
	emSeed, err := tr.prepare(clone)
	if err != nil {
		return trialOut{err: fmt.Errorf("trial %d: %w", tr.index, err)}
	}
	w.beginRun()
	waves, err := runJob(cfg.ctx, cfg.job, clone, w.solver, emSeed)
	if err != nil {
		return trialOut{err: fmt.Errorf("trial %d: %w", tr.index, err)}
	}
	return measure(cfg, tr.index, waves)
}

// measure extracts the configured scalar and envelope samples from one
// trial's wave set.
func measure(cfg batchConfig, index int, waves *wave.Set) trialOut {
	out := trialOut{
		final: make([]float64, len(cfg.signals)),
		min:   make([]float64, len(cfg.signals)),
		max:   make([]float64, len(cfg.signals)),
	}
	if cfg.grid != nil {
		out.vals = make([][]float64, len(cfg.signals))
	}
	if cfg.keepWaves {
		out.waves = waves
	}
	for k, name := range cfg.signals {
		s := waves.Get(name)
		if s == nil || s.Len() == 0 {
			return trialOut{err: fmt.Errorf("trial %d: no signal %q in output", index, name)}
		}
		out.final[k] = s.Final()
		_, vMin, _, vMax := s.MinMax()
		out.min[k], out.max[k] = vMin, vMax
		if cfg.grid != nil && s.T[s.Len()-1] < cfg.grid[len(cfg.grid)-1]-(cfg.grid[len(cfg.grid)-1]-cfg.grid[0])*1e-9 {
			// The trial's engine stopped recording before the nominal end
			// time (a partial or empty stochastic run): its "final" is not
			// the value at the end time, and min/max never saw the missing
			// span. Excluding the scalars as NaN matches how the envelope
			// marks uncovered grid points below — zero-filling would let a
			// truncated trial masquerade as a finished one in yield and
			// histogram statistics.
			out.final[k], out.min[k], out.max[k] = math.NaN(), math.NaN(), math.NaN()
		}
		if cfg.grid != nil {
			// Series.At clamps outside the recorded domain, which would
			// zero-order-hold a partial trial (one that stopped before the
			// grid end) across points it never simulated. Mark uncovered
			// points NaN instead so aggregation excludes them rather than
			// averaging fabricated data.
			first, last := s.T[0], s.T[s.Len()-1]
			tol := (cfg.grid[len(cfg.grid)-1] - cfg.grid[0]) * 1e-9
			row := make([]float64, len(cfg.grid))
			for g, t := range cfg.grid {
				if t < first-tol || t > last+tol {
					row[g] = math.NaN()
					continue
				}
				row[g] = s.At(t)
			}
			out.vals[k] = row
		}
	}
	return out
}

// resolvedSpec pairs a spec with the base-circuit element indices it
// matched, so trials address their clones by index instead of
// re-scanning element names.
type resolvedSpec struct {
	spec Spec
	idxs []int
}

// resolveSpecs validates every spec against the base circuit once and
// records the matched indices.
func resolveSpecs(ckt *circuit.Circuit, specs []Spec) ([]resolvedSpec, error) {
	out := make([]resolvedSpec, 0, len(specs))
	for _, sp := range specs {
		idxs, err := matchIndices(ckt, sp.Elem)
		if err != nil {
			return nil, err
		}
		// Fail fast on a parameter typo before any trial runs.
		if _, err := targetsAt(ckt, idxs, sp.Param); err != nil {
			return nil, err
		}
		out = append(out, resolvedSpec{spec: sp, idxs: idxs})
	}
	return out, nil
}

// mcPrepare builds trial t's prepare function: the per-trial stream
// yields the EM seed first, then one standardized variate per spec draw
// in declaration order — LOT specs one draw total, DEV specs one per
// matched element in circuit insertion order.
func mcPrepare(seed uint64, t int, specs []resolvedSpec) func(clone *circuit.Circuit) (uint64, error) {
	return func(clone *circuit.Circuit) (uint64, error) {
		stream := randx.Split(seed, t)
		emSeed := stream.Uint64()
		for _, rs := range specs {
			targets, err := targetsAt(clone, rs.idxs, rs.spec.Param)
			if err != nil {
				return 0, err
			}
			sp := rs.spec
			var z float64
			if sp.Lot {
				z = sp.draw(stream)
			}
			for _, tg := range targets {
				if !sp.Lot {
					z = sp.draw(stream)
				}
				if err := tg.set(sp.apply(tg.get(), z)); err != nil {
					return 0, err
				}
			}
		}
		return emSeed, nil
	}
}
