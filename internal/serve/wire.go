package serve

import (
	"time"

	"nanosim/internal/stats"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Deck is the SPICE-flavoured netlist source (required).
	Deck string `json:"deck"`
	// Analysis selects what to run: "tran", "dc", "dcop", "ac", "em",
	// "set", "mc" or "step". Empty picks from the deck's cards: .mc batch
	// first, then .step sweep, then the deck's first analysis card.
	Analysis string `json:"analysis,omitempty"`
	// TStop and TStep (seconds) override the deck's .tran/.em timing for
	// "tran"/"em" jobs; zero keeps the card values.
	TStop float64 `json:"tstop,omitempty"`
	TStep float64 `json:"tstep,omitempty"`
	// Trials overrides the .mc trial count for "mc" jobs.
	Trials int `json:"trials,omitempty"`
	// Seed, when non-nil, overrides the .mc/.em seed.
	Seed *uint64 `json:"seed,omitempty"`
	// Workers bounds a batch job's *inner* parallelism. The service
	// default is 1: cross-job parallelism comes from the job pool, and a
	// single mc job fanning out to every core would starve its
	// neighbours.
	Workers int `json:"workers,omitempty"`
	// Threads bounds the goroutines of an "ac" job's frequency sweep
	// (contiguous chunks); transients run on one goroutine and ignore
	// it. The deck's own ".options threads=" card is the default.
	// Results are bit-identical at any value.
	Threads int `json:"threads,omitempty"`
	// Partition forces the torn-block SWEC engine for transients (the
	// deck's own ".options partition" card also enables it).
	Partition *PartitionRequest `json:"partition,omitempty"`
	// Shard restricts an "mc" job to a global trial range: the worker
	// runs only trials [Start, End) of the full batch and returns the
	// mergeable MCShardResult instead of the final MC document. Set by a
	// coordinator dispatching to its replicas; boundaries must align to
	// vary.ShardAlign (the final shard may end at the trial total).
	Shard *ShardRequest `json:"shard,omitempty"`
	// Fresh forces re-execution. By default a submission whose
	// idempotency key (deck hash, analysis, seed and result-affecting
	// overrides) matches a live or completed job returns that job with
	// 200 instead of recomputing — the safe behavior for client retries
	// after a timeout or a restart.
	Fresh bool `json:"fresh,omitempty"`
}

// ShardRequest is the trial range of a sharded mc submission.
type ShardRequest struct {
	// Start and End bound the half-open global trial range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
}

// PartitionRequest mirrors the '.options partition' card on the wire.
type PartitionRequest struct {
	// GCouple is the relative coupling threshold in (0,1); 0 keeps the
	// engine default.
	GCouple float64 `json:"gcouple,omitempty"`
	// NoDormancy keeps every block solving every step.
	NoDormancy bool `json:"no_dormancy,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobInfo is the status document of one job (submit response, status
// endpoint, list entries).
type JobInfo struct {
	// ID addresses the job in every per-job endpoint.
	ID string `json:"id"`
	// Key is the submission's idempotency key: (deck hash, analysis,
	// seed plus any result-affecting overrides). Resubmitting the same
	// key returns this job instead of recomputing.
	Key string `json:"key,omitempty"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Analysis is the resolved analysis kind.
	Analysis string `json:"analysis"`
	// DeckHash is the compile-cache key of the submitted deck.
	DeckHash string `json:"deck_hash"`
	// CacheHit reports whether submission found the deck already
	// compiled.
	CacheHit bool `json:"cache_hit"`
	// Error carries the failure or cancellation cause.
	Error string `json:"error,omitempty"`
	// Attempts counts engine runs (>1 when transient failures were
	// retried).
	Attempts int `json:"attempts,omitempty"`
	// Requeued marks a job re-run after a restart interrupted it.
	Requeued bool `json:"requeued,omitempty"`
	// Submitted, Started and Finished stamp the lifecycle (zero until
	// reached).
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// JobList is the GET /v1/jobs response.
type JobList struct {
	Jobs []JobInfo `json:"jobs"`
}

// Result is the GET /v1/jobs/{id}/result document: the scalar outcome of
// a finished job. Kind selects which section is populated; waveforms are
// served by the stream endpoint instead (NDJSON trace.Chunk lines).
type Result struct {
	Kind string `json:"kind"`
	// Signals lists the streamable series names.
	Signals []string `json:"signals,omitempty"`
	// Tran is set for "tran" jobs.
	Tran *TranResult `json:"tran,omitempty"`
	// OP is set for "dcop" jobs.
	OP *OPResult `json:"dcop,omitempty"`
	// DC is set for "dc" sweep jobs.
	DC *DCSweepResult `json:"dc,omitempty"`
	// AC is set for "ac" small-signal jobs.
	AC *ACSweepResult `json:"ac,omitempty"`
	// EM is set for "em" jobs.
	EM *EMResult `json:"em,omitempty"`
	// Set is set for "set" (single-electron kMC transient) jobs.
	Set *SETJobResult `json:"set,omitempty"`
	// MC is set for "mc" jobs.
	MC *MCResult `json:"mc,omitempty"`
	// MCShard is set for sharded "mc" jobs (SubmitRequest.Shard): the
	// mergeable aggregate of one trial range, consumed by a coordinator.
	MCShard *MCShardResult `json:"mc_shard,omitempty"`
	// Step is set for "step" jobs.
	Step *StepResult `json:"step,omitempty"`
}

// TranResult summarizes a SWEC transient.
type TranResult struct {
	Steps    int                `json:"steps"`
	Rejected int                `json:"rejected"`
	Solves   int64              `json:"solves"`
	Blocks   int                `json:"blocks,omitempty"`
	Final    map[string]float64 `json:"final"`
}

// OPResult is a DC operating point: node voltages by node name.
type OPResult struct {
	Iterations int                `json:"iterations"`
	Nodes      map[string]float64 `json:"nodes"`
}

// DCSweepResult summarizes a DC sweep; the per-point curves stream as
// waveforms against the swept bias.
type DCSweepResult struct {
	Points int     `json:"points"`
	From   float64 `json:"from"`
	To     float64 `json:"to"`
}

// ACSweepResult summarizes an AC small-signal sweep; the per-node
// vm/vp/vdb (and onoise) curves stream as waveforms against frequency.
type ACSweepResult struct {
	Grid         string  `json:"grid"`
	Points       int     `json:"points"`
	FStart       float64 `json:"fstart"`
	FStop        float64 `json:"fstop"`
	NoiseSources int     `json:"noise_sources"`
	OPIterations int     `json:"op_iterations"`
}

// EMResult summarizes one Euler-Maruyama path.
type EMResult struct {
	Steps        int                `json:"steps"`
	NoiseSources int                `json:"noise_sources"`
	Seed         uint64             `json:"seed"`
	Final        map[string]float64 `json:"final"`
}

// SETJobResult summarizes one single-electron kinetic Monte Carlo
// transient: the tunneling event count, the number of SWEC environment
// co-simulation solves, the resolved bath temperature, and each series'
// final sample. The bin-averaged waveforms stream from the stream
// endpoint like any transient's.
type SETJobResult struct {
	Events    int                `json:"events"`
	EnvSolves int                `json:"env_solves"`
	Temp      float64            `json:"temp"`
	Seed      uint64             `json:"seed"`
	Final     map[string]float64 `json:"final"`
}

// MCResult summarizes a process-variation Monte Carlo batch. The
// envelope series (mean and quantile bands per signal) stream from the
// stream endpoint.
type MCResult struct {
	Trials int `json:"trials"`
	Failed int `json:"failed"`
	// Yield is present exactly when the deck declared .limit cards; a
	// measured 0% yield therefore stays distinguishable from "no limits
	// configured" on the wire.
	Yield *MCYield `json:"yield,omitempty"`
	// Stats holds per-signal final-value aggregates.
	Stats []MCSignal `json:"stats"`
	// NumericRefactors / FullFactorizations report the per-worker solver
	// reuse inside the batch.
	NumericRefactors   int `json:"numeric_refactors"`
	FullFactorizations int `json:"full_factorizations"`
}

// MCYield is the yield section of an mc result.
type MCYield struct {
	// Passed counts trials inside every limit.
	Passed int `json:"passed"`
	// Yield is Passed/Trials; YieldSE its binomial standard error.
	Yield   float64 `json:"yield"`
	YieldSE float64 `json:"yield_se"`
}

// MCSignal is one signal's final-value aggregate.
type MCSignal struct {
	Name   string  `json:"name"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Q05    float64 `json:"q05"`
	Median float64 `json:"median"`
	Q95    float64 `json:"q95"`
}

// MCShardResult is one trial-range shard's mergeable aggregate: exact
// per-trial scalars plus the streaming envelope state (chunked mean/std
// accumulators and quantile sketches), in place of raw waveforms. A
// coordinator assembles shards covering [0, Total) back into an exact
// MCResult (sketch-tolerance on the quantile envelope series only).
type MCShardResult struct {
	// Start/End/Total echo the global trial range this shard covered.
	Start int `json:"start"`
	End   int `json:"end"`
	Total int `json:"total"`
	// Failed counts errored trials in the range; TrialErrors samples
	// their messages.
	Failed      int      `json:"failed"`
	TrialErrors []string `json:"trial_errors,omitempty"`
	// Signals carries each aggregated series, in selection order.
	Signals []MCShardSignal `json:"signals"`
	// Solver work counters for the shard, summed by the coordinator.
	FullFactorizations int `json:"full_factorizations"`
	NumericRefactors   int `json:"numeric_refactors"`
	PatternRebuilds    int `json:"pattern_rebuilds,omitempty"`
	Reused             int `json:"reused,omitempty"`
}

// MCShardSignal is one signal's shard aggregate. The scalar arrays are
// indexed by trial - Start; null entries mark failed trials (NaN has no
// JSON encoding).
type MCShardSignal struct {
	Name string `json:"name"`
	// Env is the mergeable envelope state; absent for scalar-only (op)
	// batches.
	Env *stats.Envelope `json:"env,omitempty"`
	// Final, Min and Max are the exact per-trial measures.
	Final []*float64 `json:"final"`
	Min   []*float64 `json:"min"`
	Max   []*float64 `json:"max"`
}

// StepResult is a deterministic parameter sweep outcome: one row per
// grid point, axis values then per-signal finals (NaN for failed points
// is encoded as null).
type StepResult struct {
	Axes   []string              `json:"axes"`
	Values [][]float64           `json:"values"`
	Final  map[string][]*float64 `json:"final"`
	Failed int                   `json:"failed"`
}
