package vary

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"nanosim/internal/circuit"
	"nanosim/internal/linsolve"
	"nanosim/internal/randx"
	"nanosim/internal/stats"
	"nanosim/internal/wave"
)

// Limit is one yield specification: a trial passes when the selected
// measure of the signal lies in [Lo, Hi] (inclusive). Use math.Inf for
// one-sided limits.
type Limit struct {
	// Signal names the measured series ("v(out)").
	Signal string
	// Stat selects the scalar measure: "final" (default), "min" or "max".
	Stat string
	// Lo and Hi bound the acceptable range.
	Lo, Hi float64
}

// withDefaults normalizes the limit.
func (l Limit) withDefaults() (Limit, error) {
	switch strings.ToLower(l.Stat) {
	case "", "final":
		l.Stat = "final"
	case "min":
		l.Stat = "min"
	case "max":
		l.Stat = "max"
	default:
		return l, fmt.Errorf("vary: unknown limit stat %q (want final, min or max)", l.Stat)
	}
	if l.Hi < l.Lo {
		return l, fmt.Errorf("vary: limit %s has Hi %g < Lo %g", l.Signal, l.Hi, l.Lo)
	}
	return l, nil
}

// String renders "v(out) final in [0.9, +Inf]".
func (l Limit) String() string {
	return fmt.Sprintf("%s %s in [%g, %g]", l.Signal, l.Stat, l.Lo, l.Hi)
}

// Options configures a Monte Carlo batch.
type Options struct {
	// Trials is the number of Monte Carlo trials (default 200).
	Trials int
	// Seed drives every trial's parameter draws (and, for "em" jobs,
	// the per-trial path seeds). The same seed reproduces the batch
	// bit for bit at any Workers count.
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Specs declares the varied parameters (at least one).
	Specs []Spec
	// Job selects and configures the per-trial analysis.
	Job Job
	// Signals selects the aggregated series; empty aggregates every
	// signal the nominal run records.
	Signals []string
	// GridPoints sizes the uniform envelope grid (default 201).
	GridPoints int
	// QLo and QHi are the quantile envelope levels (default 0.05/0.95).
	QLo, QHi float64
	// HistBins sizes the per-signal final-value histogram (default 24).
	HistBins int
	// Limits are the yield specifications (may be empty: no yield).
	Limits []Limit
	// Solver picks the linear backend reused per worker (default
	// linsolve.Auto).
	Solver linsolve.Factory
	// KeepWaves retains every trial's full wave set in the result
	// (memory-heavy; off by default).
	KeepWaves bool
	// Ctx, when non-nil, cancels the batch: no further trials start and
	// in-flight trials abort mid-analysis. MonteCarlo then returns the
	// cancellation cause instead of a partial result.
	Ctx context.Context
}

// withDefaults validates and fills defaults.
func (o Options) withDefaults() (Options, error) {
	if o.Trials <= 0 {
		o.Trials = 200
	}
	if len(o.Specs) == 0 {
		return o, fmt.Errorf("vary: MonteCarlo needs at least one Spec (for input-noise-only ensembles use sde.Ensemble / nanosim.MonteCarlo)")
	}
	for _, sp := range o.Specs {
		if sp.Sigma < 0 {
			return o, fmt.Errorf("vary: spec %s has negative sigma", sp)
		}
	}
	if o.GridPoints <= 0 {
		o.GridPoints = 201
	}
	if o.GridPoints < 2 {
		return o, fmt.Errorf("vary: GridPoints must be >= 2, got %d", o.GridPoints)
	}
	if o.QLo <= 0 {
		o.QLo = 0.05
	}
	if o.QHi <= 0 {
		o.QHi = 0.95
	}
	if o.QLo >= o.QHi || o.QHi > 1 {
		return o, fmt.Errorf("vary: quantile band [%g, %g] out of order", o.QLo, o.QHi)
	}
	if o.HistBins <= 0 {
		o.HistBins = 24
	}
	// Normalize into a copy: Options is received by value and must not
	// write through to the caller's Limits backing array.
	limits := make([]Limit, len(o.Limits))
	for i, l := range o.Limits {
		nl, err := l.withDefaults()
		if err != nil {
			return o, err
		}
		limits[i] = nl
	}
	o.Limits = limits
	if o.Solver == nil {
		o.Solver = linsolve.Auto
	}
	return o, nil
}

// SignalStats aggregates one signal across the batch.
type SignalStats struct {
	// Name is the series name.
	Name string
	// Mean, Std, QLo and QHi are pointwise envelope series over the
	// uniform grid; nil when the analysis produces scalars (op jobs).
	Mean, Std, QLo, QHi *wave.Series
	// Final, Min and Max hold the per-trial scalar measures in trial
	// order; failed trials hold NaN.
	Final, Min, Max []float64
	// FinalHist bins the final values of successful trials.
	FinalHist *stats.Histogram
}

// Quantile returns the q-quantile of the signal's final values over
// successful trials.
func (s *SignalStats) Quantile(q float64) (float64, error) {
	// compact already copies, so sort in place and skip Quantile's copy.
	fin := compact(s.Final)
	sort.Float64s(fin)
	return stats.QuantileSorted(fin, q)
}

// Result is a Monte Carlo outcome.
type Result struct {
	// Trials is the requested batch size; Failed counts trials that
	// errored (perturbation out of range, singular system, ...).
	Trials, Failed int
	// TrialErrors samples the first few failures for diagnostics.
	TrialErrors []error
	// Nominal is the unperturbed run every trial deviates from.
	Nominal *wave.Set
	// Signals aggregates each selected series, in selection order.
	Signals []*SignalStats
	// Passed counts trials inside every limit; Yield is Passed/Trials
	// with YieldStdErr its binomial standard error. NaN without limits.
	Passed         int
	Yield, YieldSE float64
	// Solve sums the reused solvers' work counters across workers —
	// NumericRefactor dominating FullFactor is the signature of
	// cross-trial solver-state reuse working.
	Solve linsolve.SolveStats
	// Waves holds each trial's full output when Options.KeepWaves was
	// set (nil entries for failed trials).
	Waves []*wave.Set
}

// Signal returns the named aggregate, or nil.
func (r *Result) Signal(name string) *SignalStats {
	for _, s := range r.Signals {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// maxTrialErrors bounds the retained failure samples.
const maxTrialErrors = 8

// MonteCarlo runs opt.Trials perturbed copies of ckt through the job
// and aggregates the selected signals. ckt itself is never mutated.
func MonteCarlo(ckt *circuit.Circuit, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	job, err := jobDefaults(opt.Job)
	if err != nil {
		return nil, err
	}
	// Validate every spec against the nominal circuit up front (a typo
	// fails fast instead of failing all trials) and freeze the matched
	// element indices: Clone preserves insertion order, so trials
	// address their clones by index without re-scanning names.
	rspecs, err := resolveSpecs(ckt, opt.Specs)
	if err != nil {
		return nil, err
	}
	// Nominal probe: learns signal names and the envelope time domain,
	// and doubles as the reference run reported alongside the envelopes.
	nominal, err := runJob(opt.Ctx, job, ckt.Clone(), opt.Solver, baseSeed(job))
	if err != nil {
		return nil, fmt.Errorf("vary: nominal run failed: %w", err)
	}
	signals := opt.Signals
	if len(signals) == 0 {
		signals = nominal.Names()
	}
	if len(signals) == 0 {
		return nil, fmt.Errorf("vary: analysis records no signals")
	}
	grid, err := envelopeGrid(nominal, signals, opt.GridPoints)
	if err != nil {
		return nil, err
	}

	trials := make([]trialRun, opt.Trials)
	for t := range trials {
		trials[t] = trialRun{index: t, prepare: mcPrepare(opt.Seed, t, rspecs)}
	}
	outs, solve := runBatch(batchConfig{
		base:      ckt,
		job:       job,
		factory:   opt.Solver,
		workers:   opt.Workers,
		signals:   signals,
		grid:      grid,
		keepWaves: opt.KeepWaves,
		ctx:       opt.Ctx,
	}, trials)
	if err := batchCanceled(opt.Ctx); err != nil {
		return nil, err
	}

	res := &Result{
		Trials:  opt.Trials,
		Nominal: nominal,
		Solve:   solve,
		Yield:   math.NaN(),
		YieldSE: math.NaN(),
	}
	if opt.KeepWaves {
		res.Waves = make([]*wave.Set, len(outs))
		for t, o := range outs {
			res.Waves[t] = o.waves
		}
	}
	for _, o := range outs {
		if o.err != nil {
			res.Failed++
			if len(res.TrialErrors) < maxTrialErrors {
				res.TrialErrors = append(res.TrialErrors, o.err)
			}
		}
	}
	if res.Failed == opt.Trials {
		return nil, fmt.Errorf("vary: all %d trials failed; first error: %w", opt.Trials, res.TrialErrors[0])
	}

	for k, name := range signals {
		res.Signals = append(res.Signals, aggregateSignal(name, k, outs, grid, opt))
	}
	if err := applyLimits(res, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// applyLimits evaluates the yield specifications over the aggregated
// per-trial scalars. A trial passes when every limit's measure lies in
// range; NaN measures (failed or partial trials) never pass. Both the
// single-process and the shard-merge paths run this identical code over
// identical per-trial floats, so yield is exact under sharding.
func applyLimits(res *Result, opt Options) error {
	if len(opt.Limits) == 0 {
		return nil
	}
	sigs := map[string]*SignalStats{}
	for _, sg := range res.Signals {
		sigs[sg.Name] = sg
	}
	for _, l := range opt.Limits {
		if sigs[l.Signal] == nil {
			return fmt.Errorf("vary: limit on unaggregated signal %q", l.Signal)
		}
	}
	for t := 0; t < res.Trials; t++ {
		pass := true
		for _, l := range opt.Limits {
			sg := sigs[l.Signal]
			var v float64
			switch l.Stat {
			case "min":
				v = sg.Min[t]
			case "max":
				v = sg.Max[t]
			default:
				v = sg.Final[t]
			}
			if math.IsNaN(v) || v < l.Lo || v > l.Hi {
				pass = false
				break
			}
		}
		if pass {
			res.Passed++
		}
	}
	p := float64(res.Passed) / float64(res.Trials)
	res.Yield = p
	res.YieldSE = math.Sqrt(p * (1 - p) / float64(res.Trials))
	return nil
}

// envelopeGrid derives the uniform resampling grid from the nominal run:
// the time domain of the first selected signal. Single-sample outputs
// (operating points) aggregate as scalars only.
func envelopeGrid(nominal *wave.Set, signals []string, points int) ([]float64, error) {
	ref := nominal.Get(signals[0])
	if ref == nil {
		return nil, fmt.Errorf("vary: nominal run records no signal %q", signals[0])
	}
	if ref.Len() < 2 {
		return nil, nil
	}
	t0, t1 := ref.T[0], ref.T[ref.Len()-1]
	grid := make([]float64, points)
	for i := range grid {
		grid[i] = t0 + (t1-t0)*float64(i)/float64(points-1)
	}
	return grid, nil
}

// aggregateSignal folds the per-trial outcomes of one signal into
// envelopes, scalar samples and a histogram.
func aggregateSignal(name string, k int, outs []trialOut, grid []float64, opt Options) *SignalStats {
	sg := &SignalStats{
		Name:  name,
		Final: make([]float64, len(outs)),
		Min:   make([]float64, len(outs)),
		Max:   make([]float64, len(outs)),
	}
	for t, o := range outs {
		if o.err != nil {
			sg.Final[t], sg.Min[t], sg.Max[t] = math.NaN(), math.NaN(), math.NaN()
			continue
		}
		sg.Final[t], sg.Min[t], sg.Max[t] = o.final[k], o.min[k], o.max[k]
	}
	if grid != nil {
		// Mean/std go through the same chunk-fold Envelope the distributed
		// shard merge uses, so a merged run reproduces these bits exactly.
		// Quantiles here stay exact (sorted columns); only the shard path
		// trades them for sketches.
		env, err := stats.NewEnvelope(len(grid), 0)
		if err != nil {
			panic(err) // len(grid) >= 2 by envelopeGrid
		}
		for t, o := range outs {
			if o.err != nil {
				continue
			}
			if err := env.PushRow(t, o.vals[k]); err != nil {
				panic(err) // rows are built on this grid
			}
		}
		mean, std := env.MeanStd()
		sg.Mean = wave.NewSeries(name+"-mean", len(grid))
		sg.Std = wave.NewSeries(name+"-std", len(grid))
		sg.QLo = wave.NewSeries(fmt.Sprintf("%s-q%02.0f", name, opt.QLo*100), len(grid))
		sg.QHi = wave.NewSeries(fmt.Sprintf("%s-q%02.0f", name, opt.QHi*100), len(grid))
		col := make([]float64, 0, len(outs))
		for g, t := range grid {
			col = col[:0]
			for _, o := range outs {
				if o.err != nil {
					continue
				}
				// NaN marks a grid point the (partial) trial never covered;
				// exclude it rather than folding fabricated data in.
				if v := o.vals[k][g]; !math.IsNaN(v) {
					col = append(col, v)
				}
			}
			// One sort serves both quantiles: the per-call copy+sort of
			// stats.Quantile is pure waste at one call per quantile per
			// grid point.
			sort.Float64s(col)
			qlo, _ := stats.QuantileSorted(col, opt.QLo)
			qhi, _ := stats.QuantileSorted(col, opt.QHi)
			sg.Mean.MustAppend(t, mean[g])
			sg.Std.MustAppend(t, std[g])
			sg.QLo.MustAppend(t, qlo)
			sg.QHi.MustAppend(t, qhi)
		}
	}
	sg.FinalHist = finalHist(sg.Final, opt.HistBins)
	return sg
}

// finalHist bins the non-NaN final values, auto-ranging with a small pad
// when the sample is constant. Identical inputs give identical bins, so
// the shard-merge path (which re-bins the globally assembled finals)
// reproduces the single-process histogram exactly.
func finalHist(finals []float64, bins int) *stats.Histogram {
	fin := compact(finals)
	lo, hi := minMax(fin)
	if hi <= lo {
		pad := math.Max(1e-12, math.Abs(lo)*0.01)
		lo, hi = lo-pad, hi+pad
	}
	h, err := stats.NewHistogram(lo, hi, bins)
	if err != nil {
		return nil
	}
	for _, v := range fin {
		h.Push(v)
	}
	return h
}

// compact drops NaN (failed-trial) entries.
func compact(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

// SweepOptions configures a deterministic parameter sweep.
type SweepOptions struct {
	// Axes are the sweep dimensions; the grid is their cartesian
	// product with the last axis fastest (nested-loop order).
	Axes []SweepAxis
	// Job selects and configures the per-point analysis.
	Job Job
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Signals selects the measured series; empty measures every signal.
	Signals []string
	// Solver picks the linear backend (default linsolve.Auto).
	Solver linsolve.Factory
	// KeepWaves retains every point's full wave set.
	KeepWaves bool
	// Ctx, when non-nil, cancels the sweep as in Options.Ctx.
	Ctx context.Context
}

// SweepResult is a parameter-sweep outcome.
type SweepResult struct {
	// Axes echoes the swept dimensions.
	Axes []SweepAxis
	// Values holds each run's axis values: Values[run][axis].
	Values [][]float64
	// Signals lists the measured series names.
	Signals []string
	// Final, Min and Max map signal name to per-run measures; failed
	// runs hold NaN.
	Final, Min, Max map[string][]float64
	// Failed counts errored runs; TrialErrors samples them.
	Failed      int
	TrialErrors []error
	// Solve sums the reused solvers' work counters.
	Solve linsolve.SolveStats
	// Waves holds each run's output when KeepWaves was set.
	Waves []*wave.Set
}

// Runs returns the grid size.
func (r *SweepResult) Runs() int { return len(r.Values) }

// Sweep steps ckt's parameters across the axes' cartesian grid, running
// the job at every point. ckt itself is never mutated.
func Sweep(ckt *circuit.Circuit, opt SweepOptions) (*SweepResult, error) {
	if len(opt.Axes) == 0 {
		return nil, fmt.Errorf("vary: Sweep needs at least one axis")
	}
	job, err := jobDefaults(opt.Job)
	if err != nil {
		return nil, err
	}
	if opt.Solver == nil {
		opt.Solver = linsolve.Auto
	}
	values := make([][]float64, len(opt.Axes))
	axisIdx := make([]int, len(opt.Axes))
	runs := 1
	for i, a := range opt.Axes {
		if err := a.validate(); err != nil {
			return nil, err
		}
		// Sweep axes address exactly one element each; freeze its index
		// so runs address their clones directly.
		idxs, err := matchIndices(ckt, a.Elem)
		if err != nil {
			return nil, err
		}
		if len(idxs) != 1 {
			return nil, fmt.Errorf("vary: sweep axis %s matches %d elements, want exactly 1", a.Elem, len(idxs))
		}
		if _, err := targetsAt(ckt, idxs, a.Param); err != nil {
			return nil, err
		}
		axisIdx[i] = idxs[0]
		values[i] = a.Values()
		runs *= a.Points
	}

	nominal, err := runJob(opt.Ctx, job, ckt.Clone(), opt.Solver, baseSeed(job))
	if err != nil {
		return nil, fmt.Errorf("vary: nominal run failed: %w", err)
	}
	signals := opt.Signals
	if len(signals) == 0 {
		signals = nominal.Names()
	}

	res := &SweepResult{
		Axes:    opt.Axes,
		Values:  make([][]float64, runs),
		Signals: signals,
		Final:   map[string][]float64{},
		Min:     map[string][]float64{},
		Max:     map[string][]float64{},
	}
	trials := make([]trialRun, runs)
	for r := 0; r < runs; r++ {
		// Decode run r into axis values, last axis fastest.
		pt := make([]float64, len(opt.Axes))
		rem := r
		for i := len(opt.Axes) - 1; i >= 0; i-- {
			pt[i] = values[i][rem%opt.Axes[i].Points]
			rem /= opt.Axes[i].Points
		}
		res.Values[r] = pt
		axes := opt.Axes
		trials[r] = trialRun{index: r, prepare: func(clone *circuit.Circuit, _ *randx.Stream) (uint64, error) {
			for i, a := range axes {
				targets, err := targetsAt(clone, axisIdx[i:i+1], a.Param)
				if err != nil {
					return 0, err
				}
				if err := targets[0].set(pt[i]); err != nil {
					return 0, err
				}
			}
			return baseSeed(job), nil
		}}
	}
	outs, solve := runBatch(batchConfig{
		base:      ckt,
		job:       job,
		factory:   opt.Solver,
		workers:   opt.Workers,
		signals:   signals,
		keepWaves: opt.KeepWaves,
		ctx:       opt.Ctx,
	}, trials)
	if err := batchCanceled(opt.Ctx); err != nil {
		return nil, err
	}
	res.Solve = solve
	if opt.KeepWaves {
		res.Waves = make([]*wave.Set, len(outs))
	}
	for _, name := range signals {
		res.Final[name] = make([]float64, runs)
		res.Min[name] = make([]float64, runs)
		res.Max[name] = make([]float64, runs)
	}
	for r, o := range outs {
		if opt.KeepWaves {
			res.Waves[r] = o.waves
		}
		if o.err != nil {
			res.Failed++
			if len(res.TrialErrors) < maxTrialErrors {
				res.TrialErrors = append(res.TrialErrors, o.err)
			}
			for _, name := range signals {
				res.Final[name][r] = math.NaN()
				res.Min[name][r] = math.NaN()
				res.Max[name][r] = math.NaN()
			}
			continue
		}
		for k, name := range signals {
			res.Final[name][r] = o.final[k]
			res.Min[name][r] = o.min[k]
			res.Max[name][r] = o.max[k]
		}
	}
	if res.Failed == runs {
		return nil, fmt.Errorf("vary: all %d sweep points failed; first error: %w", runs, res.TrialErrors[0])
	}
	return res, nil
}
