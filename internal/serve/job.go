package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"nanosim/internal/analysis"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
	"nanosim/internal/pipeline"
	"nanosim/internal/vary"
	"nanosim/internal/wave"
)

// job is one submitted analysis moving through the queue.
type job struct {
	id     string
	key    string // idempotency key: (deck hash, kind, seed, overrides)
	client string // submitting client, for the per-client live-job cap
	req    SubmitRequest
	entry  *deckEntry
	kind   string
	plan   *pipeline.Plan
	// deckSrc retains the raw netlist for coordinated mc jobs only: the
	// coordinator re-submits it verbatim to worker replicas. Every other
	// job drops the source after compilation.
	deckSrc string

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu     sync.Mutex
	info   JobInfo
	result *Result
	// waves is the in-memory stream payload of a finished job that has
	// no spill (every job without a data dir, and one whose spill
	// failed), until the MaxWaveJobs bound drops it. Each read encodes
	// it. With a spill the file is the only copy and waves stays nil.
	waves    *wave.Set
	hadWaves bool // the job produced a stream payload (410, not 204, once gone)
}

// hasWaves reports whether the job holds an in-memory stream payload.
func (j *job) hasWaves() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.waves != nil
}

// dropWaves releases the in-memory stream payload; hadWaves stays set,
// so the stream endpoint answers 410 instead of 204.
func (j *job) dropWaves() {
	j.mu.Lock()
	j.waves = nil
	j.mu.Unlock()
}

// snapshot returns the job's current JobInfo.
func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// terminal reports whether the job already finished.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// jobKey builds the idempotency key of a submission: deck content hash,
// analysis kind, and every request field that changes the result. The
// deck hash already covers card-level seeds/trials, so only request
// overrides appear. Workers and Threads are deliberately absent — batch
// and engine results are bit-identical at any worker count, so two
// submissions differing only there are the same computation.
func jobKey(hash, kind string, req SubmitRequest, popt *part.Options) string {
	var b strings.Builder
	b.WriteString(hash)
	b.WriteByte('|')
	b.WriteString(kind)
	if req.Seed != nil {
		fmt.Fprintf(&b, "|seed=%d", *req.Seed)
	}
	if req.TStop > 0 {
		fmt.Fprintf(&b, "|tstop=%g", req.TStop)
	}
	if req.TStep > 0 {
		fmt.Fprintf(&b, "|tstep=%g", req.TStep)
	}
	if req.Trials > 0 {
		fmt.Fprintf(&b, "|trials=%d", req.Trials)
	}
	if req.Shard != nil {
		// A shard is a different computation from the full batch (and
		// from its sibling shards), so the range is part of the key: a
		// coordinator re-dispatching after failover idempotently hits the
		// replica's finished shard instead of recomputing it.
		fmt.Fprintf(&b, "|shard=%d:%d", req.Shard.Start, req.Shard.End)
	}
	if popt != nil {
		fmt.Fprintf(&b, "|part(g=%g,nd=%v)", popt.GCouple, popt.NoDormancy)
	}
	return b.String()
}

// overrides maps a request onto the deck's cards. Batches default to
// one inner worker: cross-job parallelism comes from the job pool, and
// one mc job fanning out to every core would starve its neighbours.
func (req SubmitRequest) overrides() pipeline.Overrides {
	o := pipeline.Overrides{
		TStop: req.TStop, TStep: req.TStep, Seed: req.Seed, Trials: req.Trials,
		Workers: req.Workers, Threads: req.Threads,
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if p := req.Partition; p != nil {
		o.Partition, o.GCouple, o.NoDormancy = true, p.GCouple, p.NoDormancy
	}
	return o
}

// resolve maps a submission onto its analysis kind and plan, and
// validates that the deck can run it: submit-time validation, so a bad
// request is a 4xx, not a failed job.
func resolve(deck *netparse.Deck, req SubmitRequest) (string, *pipeline.Plan, error) {
	plan, err := pipeline.New(deck, req.overrides())
	if err != nil {
		return "", nil, err
	}
	kind, err := plan.Kind(req.Analysis)
	if err != nil {
		return "", nil, err
	}
	if req.Shard != nil {
		if kind != "mc" {
			return "", nil, fmt.Errorf("shard ranges apply to mc jobs only, not %q", kind)
		}
		if req.Shard.Start < 0 || req.Shard.End <= req.Shard.Start {
			return "", nil, fmt.Errorf("bad shard range [%d,%d)", req.Shard.Start, req.Shard.End)
		}
	}
	return kind, plan, nil
}

// profile keys the solver free list: runs with the same profile stamp
// identical factory-call sequences.
func (j *job) profile() string {
	p := j.kind
	if popt := j.plan.Partition(); popt != nil {
		p += fmt.Sprintf("+part(g=%g,nd=%v)", popt.GCouple, popt.NoDormancy)
	}
	return p
}

// run executes the resolved analysis. It returns the scalar result and
// the streamable wave set; the solver checkout/checkin happens here so
// the compiled stamp pattern and symbolic LU of this deck profile carry
// over to the next job.
func (j *job) run(met *metrics) (*Result, *wave.Set, error) {
	start := time.Now()
	var (
		res   *Result
		waves *wave.Set
		err   error
	)
	switch j.kind {
	case "mc":
		res, waves, err = j.runMC()
	case "step":
		res, waves, err = j.runStep()
	default:
		// Single-run analyses share the entry's compiled solver state.
		ss := j.entry.checkout(j.profile(), met)
		res, waves, err = j.runSingle(ss)
		j.entry.checkin(ss, met, err == nil)
	}
	met.observe(j.kind, time.Since(start))
	return res, waves, err
}

// runSingle executes a single-run analysis on a clone of the cached
// circuit. Cloning keeps the cached deck immutable (core.Sweep mutates
// the swept source) and costs a circuit walk — the parse and the solver
// state are what the cache is for.
func (j *job) runSingle(ss *solverSet) (*Result, *wave.Set, error) {
	ckt := j.entry.deck.Circuit.Clone()
	spec := j.plan.Single(j.kind)
	spec.Ctx, spec.Solver = j.ctx, ss.factory
	out, err := analysis.Run(ckt, spec)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Kind: j.kind, Signals: out.Waves.Names()}
	switch j.kind {
	case "tran":
		st := out.Tran.Stats
		res.Tran = &TranResult{
			Steps: st.Steps, Rejected: st.Rejected, Solves: st.Solves, Blocks: st.Blocks,
			Final: finals(out.Waves),
		}
	case "dc":
		res.DC = &DCSweepResult{Points: spec.DC.Points, From: spec.DC.From, To: spec.DC.To}
	case "ac":
		res.AC = &ACSweepResult{
			Grid: spec.AC.Grid, Points: len(out.AC.Freqs), FStart: spec.AC.FStart, FStop: spec.AC.FStop,
			NoiseSources: out.AC.NoiseSources, OPIterations: out.AC.OPIterations,
		}
	case "dcop":
		nodes := map[string]float64{}
		for _, name := range ckt.NodeNames() {
			nodes[name] = out.OP.X[int(ckt.Node(name))-1]
		}
		res.OP = &OPResult{Iterations: out.OP.Iterations, Nodes: nodes}
	case "em":
		res.EM = &EMResult{
			Steps: spec.EM.Steps, NoiseSources: out.EM.NoiseSources, Seed: spec.EM.Seed,
			Final: finals(out.Waves),
		}
	case "set":
		res.Set = &SETJobResult{
			Events: out.SET.Events, EnvSolves: out.SET.EnvSolves, Temp: out.SET.Temp, Seed: spec.SET.Seed,
			Final: finals(out.Waves),
		}
	}
	return res, out.Waves, nil
}

// mcOptions is the deck's Monte Carlo batch under the request's
// overrides, shared by the full-run, shard and coordinator paths.
func (j *job) mcOptions() (vary.Options, error) {
	opt, err := j.plan.MC()
	opt.Ctx = j.ctx
	return opt, err
}

// mcResult converts a finished batch into the wire result and envelope
// stream payload; shared by the local and coordinated mc paths.
func mcResult(r *vary.Result, hasLimits bool) (*Result, *wave.Set, error) {
	mc := &MCResult{
		Trials:             r.Trials,
		Failed:             r.Failed,
		NumericRefactors:   r.Solve.NumericRefactor,
		FullFactorizations: r.Solve.FullFactor,
	}
	if hasLimits {
		mc.Yield = &MCYield{Passed: r.Passed, Yield: r.Yield, YieldSE: r.YieldSE}
	}
	env := wave.NewSet()
	for _, sg := range r.Signals {
		st := MCSignal{Name: sg.Name}
		st.Mean, st.Std = meanStd(sg.Final)
		st.Q05, _ = sg.Quantile(0.05)
		st.Median, _ = sg.Quantile(0.5)
		st.Q95, _ = sg.Quantile(0.95)
		mc.Stats = append(mc.Stats, st)
		for _, s := range []*wave.Series{sg.Mean, sg.QLo, sg.QHi} {
			if s != nil {
				if err := env.Add(s); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return &Result{Kind: "mc", Signals: env.Names(), MC: mc}, env, nil
}

// runMC executes the deck's Monte Carlo cards; the stream payload is the
// envelope set (mean and quantile bands per signal). A shard request runs
// only its trial range and returns the mergeable aggregate instead.
func (j *job) runMC() (*Result, *wave.Set, error) {
	deck := j.entry.deck
	opt, err := j.mcOptions()
	if err != nil {
		return nil, nil, err
	}
	if j.req.Shard != nil {
		rng := vary.ShardRange{Start: j.req.Shard.Start, End: j.req.Shard.End, Total: opt.Trials}
		sr, err := vary.MonteCarloShard(deck.Circuit, opt, rng)
		if err != nil {
			return nil, nil, err
		}
		return &Result{Kind: "mc-shard", MCShard: shardResultToWire(sr)}, nil, nil
	}
	r, err := vary.MonteCarlo(deck.Circuit, opt)
	if err != nil {
		return nil, nil, err
	}
	return mcResult(r, len(opt.Limits) > 0)
}

// runStep executes the deck's .step sweep.
func (j *job) runStep() (*Result, *wave.Set, error) {
	opt, err := j.plan.Step()
	if err != nil {
		return nil, nil, err
	}
	opt.Ctx = j.ctx
	r, err := vary.Sweep(j.entry.deck.Circuit, opt)
	if err != nil {
		return nil, nil, err
	}
	st := &StepResult{Failed: r.Failed, Values: r.Values, Final: map[string][]*float64{}}
	for _, a := range r.Axes {
		name := a.Elem
		if a.Param != "" {
			name += "(" + a.Param + ")"
		}
		st.Axes = append(st.Axes, name)
	}
	signals := append([]string(nil), r.Signals...)
	sort.Strings(signals)
	for _, name := range signals {
		col := make([]*float64, r.Runs())
		for i, v := range r.Final[name] {
			if !math.IsNaN(v) {
				vv := v
				col[i] = &vv
			}
		}
		st.Final[name] = col
	}
	return &Result{Kind: "step", Signals: signals, Step: st}, nil, nil
}

// finals maps every series to its last sample.
func finals(set *wave.Set) map[string]float64 {
	out := map[string]float64{}
	for _, name := range set.Names() {
		out[name] = wave.Finite(set.Get(name).Final(), 0)
	}
	return out
}

// meanStd computes the mean and (population) standard deviation of the
// finite entries of vals; NaN entries mark failed trials.
func meanStd(vals []float64) (mean, std float64) {
	n := 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			mean += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean /= float64(n)
	for _, v := range vals {
		if !math.IsNaN(v) {
			std += (v - mean) * (v - mean)
		}
	}
	return mean, math.Sqrt(std / float64(n))
}
