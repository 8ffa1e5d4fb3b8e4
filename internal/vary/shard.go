package vary

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nanosim/internal/circuit"
	"nanosim/internal/linsolve"
	"nanosim/internal/stats"
	"nanosim/internal/wave"
)

// SketchAlpha is the relative accuracy of the quantile sketches a shard
// ships in place of raw waveforms: merged QLo/QHi envelopes are within
// 0.5% (relative) of the order statistic at the target rank. Every
// replica must use the same value — sketches with different alpha refuse
// to merge.
const SketchAlpha = 0.005

// ShardAlign is the required alignment of shard boundaries. It equals
// the chunk quantum of the mean/std accumulators, which is what makes a
// merged mean/std envelope bit-identical to the single-process run for
// any aligned split (see stats.MergeChunk). The final shard's End is
// exempt when it equals the trial total.
const ShardAlign = stats.MergeChunk

// WithDefaults validates opt and resolves its defaults — in particular
// the effective trial count a coordinator's shard ranges must tile.
func (o Options) WithDefaults() (Options, error) { return o.withDefaults() }

// ShardRange is a half-open global trial range [Start, End) out of Total.
type ShardRange struct {
	Start, End, Total int
}

// Validate checks the range bounds and boundary alignment.
func (r ShardRange) Validate() error {
	if r.Total <= 0 || r.Start < 0 || r.End <= r.Start || r.End > r.Total {
		return fmt.Errorf("vary: bad shard range [%d,%d) of %d", r.Start, r.End, r.Total)
	}
	if r.Start%ShardAlign != 0 {
		return fmt.Errorf("vary: shard start %d not aligned to %d", r.Start, ShardAlign)
	}
	if r.End%ShardAlign != 0 && r.End != r.Total {
		return fmt.Errorf("vary: shard end %d not aligned to %d (and not the trial total)", r.End, ShardAlign)
	}
	return nil
}

// Len returns the number of trials in the range.
func (r ShardRange) Len() int { return r.End - r.Start }

// String renders "[64,128)/200".
func (r ShardRange) String() string { return fmt.Sprintf("[%d,%d)/%d", r.Start, r.End, r.Total) }

// ShardRanges splits total trials into at most n aligned ranges of
// near-equal size. Fewer ranges come back when total is small; n <= 0 is
// one range.
func ShardRanges(total, n int) []ShardRange {
	if total <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	// Per-shard size rounded up to the alignment quantum.
	per := (total + n - 1) / n
	per = (per + ShardAlign - 1) / ShardAlign * ShardAlign
	var out []ShardRange
	for start := 0; start < total; start += per {
		end := start + per
		if end > total {
			end = total
		}
		out = append(out, ShardRange{Start: start, End: end, Total: total})
	}
	return out
}

// SignalShard is one signal's mergeable aggregate over a trial range:
// the streaming envelope (chunked mean/std plus quantile sketches) and
// the exact per-trial scalar measures, indexed by trial - Range.Start.
// Failed trials hold NaN scalars. The scalars are what keep the merged
// yield, final-value quantiles and histograms exact: they are cheap to
// ship (three floats per trial) while the waveforms stay behind the
// envelope.
type SignalShard struct {
	Name            string
	Env             *stats.Envelope // nil for scalar-only (op) jobs
	Final, Min, Max []float64
}

// ShardResult is one shard's contribution to a distributed Monte Carlo
// run, as produced by MonteCarloShard on a worker replica and consumed
// by MergeShards on the coordinator.
type ShardResult struct {
	// Range is the global trial range this shard covered.
	Range ShardRange
	// Failed counts errored trials in the range; TrialErrors samples
	// their messages.
	Failed      int
	TrialErrors []string
	// Signals aggregates each selected series, in selection order.
	Signals []*SignalShard
	// Solve sums the shard's solver work counters.
	Solve linsolve.SolveStats
}

// MonteCarloShard runs the global trial range rng of the Monte Carlo
// batch described by opt and returns its mergeable aggregate. Trial t's
// randomness derives from randx.Split(opt.Seed, t) with the global
// index, so any replica produces bit-identical per-trial outcomes; the
// chunked accumulators and count-bin sketches then make the merged
// aggregates independent of how trials were sharded (exactly for
// mean/std/scalars, order-invariantly for sketched quantiles) as long as
// boundaries respect ShardAlign.
func MonteCarloShard(ckt *circuit.Circuit, opt Options, rng ShardRange) (*ShardResult, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := rng.Validate(); err != nil {
		return nil, err
	}
	if rng.Total != opt.Trials {
		return nil, fmt.Errorf("vary: shard range %s does not match %d trials", rng, opt.Trials)
	}
	job, err := jobDefaults(opt.Job)
	if err != nil {
		return nil, err
	}
	rspecs, err := resolveSpecs(ckt, opt.Specs)
	if err != nil {
		return nil, err
	}
	// The nominal probe is deterministic per (deck, job), so every shard
	// derives the identical signal list and envelope grid.
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

	trials := make([]trialRun, rng.Len())
	for i := range trials {
		t := rng.Start + i
		trials[i] = trialRun{index: t, prepare: mcPrepare(opt.Seed, t, rspecs)}
	}
	outs, solve := runBatch(batchConfig{
		base:    ckt,
		job:     job,
		factory: opt.Solver,
		workers: opt.Workers,
		signals: signals,
		grid:    grid,
		ctx:     opt.Ctx,
	}, trials)
	if err := batchCanceled(opt.Ctx); err != nil {
		return nil, err
	}

	sr := &ShardResult{Range: rng, Solve: solve}
	for _, o := range outs {
		if o.err != nil {
			sr.Failed++
			if len(sr.TrialErrors) < maxTrialErrors {
				sr.TrialErrors = append(sr.TrialErrors, o.err.Error())
			}
		}
	}
	for k, name := range signals {
		sh := &SignalShard{
			Name:  name,
			Final: make([]float64, len(outs)),
			Min:   make([]float64, len(outs)),
			Max:   make([]float64, len(outs)),
		}
		if grid != nil {
			env, err := stats.NewEnvelope(len(grid), SketchAlpha)
			if err != nil {
				return nil, err
			}
			sh.Env = env
		}
		for i, o := range outs {
			if o.err != nil {
				sh.Final[i], sh.Min[i], sh.Max[i] = math.NaN(), math.NaN(), math.NaN()
				continue
			}
			sh.Final[i], sh.Min[i], sh.Max[i] = o.final[k], o.min[k], o.max[k]
			if sh.Env != nil {
				if err := sh.Env.PushRow(rng.Start+i, o.vals[k]); err != nil {
					return nil, err
				}
			}
		}
		sr.Signals = append(sr.Signals, sh)
	}
	return sr, nil
}

// MergeShards combines shard results covering all of [0, Trials) into
// one Result equivalent to a single-process MonteCarlo of the same
// options: bit-identical Trials/Failed/Final/Min/Max/FinalHist, mean and
// std envelopes, Passed/Yield/YieldSE; QLo/QHi envelopes come from the
// merged sketches and are within SketchAlpha (relative) of the exact
// quantile instead. ckt is needed for the nominal reference run, which
// also pins the envelope grid. Shards may arrive in any order; overlaps
// and gaps are errors.
func MergeShards(ckt *circuit.Circuit, opt Options, shards []*ShardResult) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, errors.New("vary: no shards to merge")
	}
	sorted := append([]*ShardResult(nil), shards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Range.Start < sorted[j].Range.Start })
	next := 0
	for _, sh := range sorted {
		if sh.Range.Total != opt.Trials {
			return nil, fmt.Errorf("vary: shard %s does not match %d trials", sh.Range, opt.Trials)
		}
		if err := sh.Range.Validate(); err != nil {
			return nil, err
		}
		if sh.Range.Start != next {
			return nil, fmt.Errorf("vary: shard coverage broken at trial %d (next shard is %s)", next, sh.Range)
		}
		next = sh.Range.End
	}
	if next != opt.Trials {
		return nil, fmt.Errorf("vary: shards cover only %d of %d trials", next, opt.Trials)
	}

	job, err := jobDefaults(opt.Job)
	if err != nil {
		return nil, err
	}
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

	res := &Result{
		Trials:  opt.Trials,
		Nominal: nominal,
		Yield:   math.NaN(),
		YieldSE: math.NaN(),
	}
	for k, name := range signals {
		sg := &SignalStats{
			Name:  name,
			Final: make([]float64, opt.Trials),
			Min:   make([]float64, opt.Trials),
			Max:   make([]float64, opt.Trials),
		}
		var env *stats.Envelope
		if grid != nil {
			env, err = stats.NewEnvelope(len(grid), SketchAlpha)
			if err != nil {
				return nil, err
			}
		}
		for _, shard := range sorted {
			if len(shard.Signals) != len(signals) || shard.Signals[k].Name != name {
				return nil, fmt.Errorf("vary: shard %s aggregates different signals", shard.Range)
			}
			sh := shard.Signals[k]
			if sh.Env == nil != (env == nil) {
				return nil, fmt.Errorf("vary: shard %s envelope presence differs", shard.Range)
			}
			if len(sh.Final) != shard.Range.Len() {
				return nil, fmt.Errorf("vary: shard %s carries %d finals for %d trials", shard.Range, len(sh.Final), shard.Range.Len())
			}
			copy(sg.Final[shard.Range.Start:shard.Range.End], sh.Final)
			copy(sg.Min[shard.Range.Start:shard.Range.End], sh.Min)
			copy(sg.Max[shard.Range.Start:shard.Range.End], sh.Max)
			if env != nil {
				if err := env.Merge(sh.Env); err != nil {
					return nil, fmt.Errorf("vary: shard %s envelope: %w", shard.Range, err)
				}
			}
		}
		if env != nil {
			mean, std := env.MeanStd()
			qlo, err := env.Quantile(opt.QLo)
			if err != nil {
				return nil, err
			}
			qhi, err := env.Quantile(opt.QHi)
			if err != nil {
				return nil, err
			}
			sg.Mean = wave.NewSeries(name+"-mean", len(grid))
			sg.Std = wave.NewSeries(name+"-std", len(grid))
			sg.QLo = wave.NewSeries(fmt.Sprintf("%s-q%02.0f", name, opt.QLo*100), len(grid))
			sg.QHi = wave.NewSeries(fmt.Sprintf("%s-q%02.0f", name, opt.QHi*100), len(grid))
			for g, t := range grid {
				sg.Mean.MustAppend(t, mean[g])
				sg.Std.MustAppend(t, std[g])
				sg.QLo.MustAppend(t, qlo[g])
				sg.QHi.MustAppend(t, qhi[g])
			}
		}
		sg.FinalHist = finalHist(sg.Final, opt.HistBins)
		res.Signals = append(res.Signals, sg)
	}
	for _, shard := range sorted {
		res.Failed += shard.Failed
		res.Solve.Accumulate(shard.Solve)
		for _, msg := range shard.TrialErrors {
			if len(res.TrialErrors) < maxTrialErrors {
				res.TrialErrors = append(res.TrialErrors, errors.New(msg))
			}
		}
	}
	if res.Failed == opt.Trials {
		return nil, fmt.Errorf("vary: all %d trials failed; first error: %w", opt.Trials, res.TrialErrors[0])
	}
	if err := applyLimits(res, opt); err != nil {
		return nil, err
	}
	return res, nil
}
