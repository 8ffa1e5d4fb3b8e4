package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"nanosim/internal/faultpoint"
	"nanosim/internal/pipeline"
	"nanosim/internal/serve/store"
	"nanosim/internal/trace"
	"nanosim/internal/wave"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	// It bounds how many analyses run concurrently; further submissions
	// queue.
	Workers int
	// QueueDepth bounds the pending-job queue (default 256). A full
	// queue sheds submissions with 503 + Retry-After rather than
	// buffering without bound.
	QueueDepth int
	// MaxDeckBytes bounds the submitted netlist size (default 1 MiB).
	MaxDeckBytes int64
	// MaxDecks bounds the compile cache (default 128 entries, LRU).
	MaxDecks int
	// MaxJobs bounds the retained job records (default 1024; oldest
	// finished jobs are evicted first).
	MaxJobs int
	// MaxWaveJobs bounds how many finished jobs keep their stream
	// payload in memory (default 64): the jobs of a server without a
	// DataDir, and jobs whose spill failed. Older ones keep their status
	// and scalar result, and their stream is gone (410). With a DataDir
	// the spill is a job's only payload, bounded by MaxSpillWaves.
	MaxWaveJobs int
	// ChunkSamples bounds the samples per NDJSON stream chunk (default
	// trace.DefaultChunkSamples).
	ChunkSamples int

	// DataDir enables the durable job store: journal, deck sources and
	// waveform spill live under it, and a restart on the same directory
	// replays the journal, restores finished jobs and re-queues
	// interrupted ones. Empty keeps the pre-durability in-memory-only
	// behavior.
	DataDir string
	// FsyncJournal selects per-event fsync of the journal (restart-safe
	// across power loss, at a syscall per lifecycle event).
	FsyncJournal bool
	// MaxSpillWaves bounds the spilled waveform payloads retained on
	// disk (default 256, oldest spill pruned first). With a DataDir it
	// alone bounds how many finished jobs stay streamable, whatever
	// MaxWaveJobs is: a job whose spill was pruned answers 410.
	MaxSpillWaves int

	// JobTimeout bounds one job's wall-clock run time (0 = unlimited).
	// A timed-out job fails with a "job timeout" error, it is not
	// "canceled" — the distinction matters to retrying clients.
	JobTimeout time.Duration
	// QueueWaitMax bounds how long a job may wait in the queue
	// (0 = unlimited). Submissions whose estimated wait exceeds it are
	// shed up front (503 + Retry-After); jobs that still exceed it by
	// dequeue time fail rather than run stale.
	QueueWaitMax time.Duration
	// MaxRetries is how many times a transiently-failed run is retried
	// with jittered backoff before the job fails (default 1; negative
	// disables retries).
	MaxRetries int
	// RetryBackoff is the base backoff between retry attempts, doubled
	// per attempt and jittered (default 25ms).
	RetryBackoff time.Duration

	// RatePerSec enables per-client token-bucket admission control:
	// sustained submissions per second per client (0 = unlimited).
	RatePerSec float64
	// RateBurst is the token-bucket depth (default 2×RatePerSec, min 1).
	RateBurst int
	// MaxClientJobs bounds one client's live (queued+running) jobs
	// (0 = unlimited).
	MaxClientJobs int

	// StreamWriteTimeout bounds each stream block write so a stalled
	// reader cannot pin a stream handler forever (default 30s).
	StreamWriteTimeout time.Duration

	// Replicas switches the server into coordinator mode for mc jobs:
	// instead of running the whole batch locally, a submission is split
	// into aligned trial-range shards dispatched to these worker base
	// URLs (e.g. "http://host:port") over the normal submit API, and the
	// shard aggregates are merged into the single-process result. All
	// other analyses still run locally.
	Replicas []string
	// ShardsPerReplica sets the dispatch granularity: the trial count is
	// split into up to len(Replicas)×ShardsPerReplica aligned ranges
	// (default 1). More shards per replica smooths load when trial costs
	// vary, at more per-shard overhead.
	ShardsPerReplica int
	// ShardTimeout bounds one shard attempt on one replica, dispatch to
	// result (default 5m). A timed-out or failed attempt fails over to
	// the next replica in deterministic rotation.
	ShardTimeout time.Duration
	// ShardRetries is how many times a failed shard attempt fails over
	// to another replica before the whole job fails (default 2; negative
	// disables failover).
	ShardRetries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxDeckBytes <= 0 {
		c.MaxDeckBytes = 1 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxWaveJobs <= 0 {
		c.MaxWaveJobs = 64
	}
	if c.MaxSpillWaves <= 0 {
		c.MaxSpillWaves = 256
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RateBurst <= 0 {
		c.RateBurst = int(math.Ceil(2 * c.RatePerSec))
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 30 * time.Second
	}
	if c.ShardsPerReplica <= 0 {
		c.ShardsPerReplica = 1
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.ShardRetries == 0 {
		c.ShardRetries = 2
	}
	if c.ShardRetries < 0 {
		c.ShardRetries = 0
	}
	return c
}

// Cancellation causes that need distinct terminal classification.
var (
	errShutdown        = errors.New("server shutting down")
	errJobTimeout      = errors.New("job timeout")
	errDrainCheckpoint = errors.New("drain deadline exceeded; job checkpointed for restart")
	errKilled          = errors.New("server killed")
)

// Server is the nanosimd simulation service: a deck-compile cache, a
// bounded worker pool, the durable job store and the HTTP front door.
// Create with New, serve its Handler, and Close (or Drain) it on
// shutdown.
type Server struct {
	cfg   Config
	cache *deckCache
	met   *metrics
	store *store.Store
	admit *admission

	baseCtx  context.Context
	baseStop context.CancelCauseFunc
	queue    chan *job
	wg       sync.WaitGroup
	// httpc dispatches coordinator shards; per-attempt contexts bound
	// each request, so the client itself carries no timeout.
	httpc *http.Client

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string        // submission order, for listing and eviction
	keys    map[string]*job // idempotency key → job
	clients map[string]int  // live (queued+running) jobs per client
	nextID  int64
	queued  int
	running int
	memJobs []*job // finished jobs holding an in-memory payload, oldest first
	// Job-lifecycle counters live under mu (not atomics) so a /metrics
	// snapshot is consistent: submitted == queued+running+terminal at
	// every instant an observer can see.
	submitted, completed, failed, canceled int64
	closed, draining                       bool
}

// New starts a server with cfg.Workers simulation workers. With a
// DataDir it replays the journal first: finished jobs come back with
// their results, interrupted jobs are re-queued.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		met:     newMetrics(),
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    map[string]*job{},
		keys:    map[string]*job{},
		clients: map[string]int{},
		admit:   newAdmission(cfg.RatePerSec, cfg.RateBurst),
		httpc:   &http.Client{},
	}
	s.cache = newDeckCache(cfg.MaxDecks, s.met)
	s.baseCtx, s.baseStop = context.WithCancelCause(context.Background())
	var recovered map[string]*store.Record
	if cfg.DataDir != "" {
		var err error
		s.store, recovered, err = store.Open(cfg.DataDir, cfg.FsyncJournal)
		if err != nil {
			return nil, err
		}
		// Open retains every journaled payload still on disk, also those
		// the last process pruned while their segment stayed. The ring
		// comes back in journal order, the order the payloads spilled
		// (up to finishes that journal in another order than they
		// spilled), so pruning again drops what was pruned.
		s.store.PruneWaves(cfg.MaxSpillWaves)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if len(recovered) > 0 {
		s.recover(recovered)
	}
	return s, nil
}

// MustNew is New for call sites without a data dir, where the only
// error path (store open) cannot happen.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Close stops accepting jobs, cancels everything in flight and waits
// for the workers to drain. Submission and shutdown are mutually
// exclusive: sends on the queue happen only under mu with closed
// false, and the channel close happens under mu after closed is set,
// so a racing submit either lands before Close or is rejected.
func (s *Server) Close() { s.shutdown(errShutdown) }

func (s *Server) shutdown(cause error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Cancel first so queued jobs fail fast as workers drain the
	// remaining channel entries.
	s.baseStop(cause)
	s.mu.Lock()
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	if s.store != nil {
		s.store.Close()
	}
}

// kill simulates `kill -9` for crash-recovery tests: the journal stops
// being written first (as a dead process stops writing), then
// everything is torn down without journaling terminal states — exactly
// the state a real crash leaves on disk.
func (s *Server) kill() {
	if s.store != nil {
		s.store.Wedge(errKilled)
	}
	s.shutdown(errKilled)
}

// StartDrain flips the server into draining mode: readiness goes 503,
// new submissions are rejected with Retry-After, everything already
// admitted keeps running.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether the server is draining (or closed).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Drain performs graceful shutdown: stop admitting, let in-flight and
// queued jobs finish, then Close. If ctx expires first, the remaining
// jobs are checkpointed — canceled with a drain cause that journals
// them as interrupted, so a restart on the same data dir re-queues
// them — and the error reports how many were cut short.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		live := s.queued + s.running
		s.mu.Unlock()
		if live == 0 {
			s.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			s.shutdown(errDrainCheckpoint)
			return fmt.Errorf("drain deadline: %d jobs checkpointed for restart", live)
		case <-tick.C:
		}
	}
}

// Metrics returns the current counter snapshot (also served at
// /metrics).
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	jm := JobMetrics{
		Submitted: s.submitted,
		Completed: s.completed,
		Failed:    s.failed,
		Canceled:  s.canceled,
		Queued:    s.queued,
		Running:   s.running,
	}
	var oldest time.Duration
	now := time.Now()
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			ji := j.snapshot()
			if ji.State == StateQueued {
				oldest = now.Sub(ji.Submitted)
				break
			}
		}
	}
	s.mu.Unlock()
	var sc *store.Counters
	if s.store != nil {
		c := s.store.Counters()
		sc = &c
	}
	snap := s.met.snapshot(s.cache.size(), s.cache.masters.metrics(), jm, oldest, sc)
	if len(s.cfg.Replicas) > 0 {
		snap.Coordinator = &CoordMetrics{
			Replicas:   len(s.cfg.Replicas),
			Dispatched: s.met.coordDispatched.Load(),
			Retries:    s.met.coordRetries.Load(),
			Merged:     s.met.coordMerged.Load(),
			Failed:     s.met.coordFailed.Load(),
		}
	}
	return snap
}

// worker drains the job queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runOne(j)
	}
}

// finish moves a job to a terminal state: journal and waveform spill
// first, then counters and state together, then the done latch.
// res/waves are nil except for done. A spilled payload lives only in
// its spill file; without one the job keeps the set in memory and each
// read encodes it.
func (s *Server) finish(j *job, state, errMsg string, res *Result, waves *wave.Set, attempts int) {
	// Journal first: once a status read, /metrics or a waiter can see the
	// terminal state, the transition (result and waveform spill
	// included) is already durable, so a kill -9 cannot re-queue work
	// the service has acknowledged.
	spilled := false
	if s.store != nil {
		spilled = s.journalTerminal(j, state, errMsg, res, waves, attempts)
	}
	hasWaves := waves != nil && waves.Len() > 0
	if !hasWaves || spilled {
		waves = nil
	}

	s.mu.Lock()
	// The job leaves its live bucket, enters its terminal one and
	// publishes its terminal state under one lock, so every /metrics
	// snapshot balances exactly:
	// submitted == queued + running + completed + failed + canceled.
	switch j.snapshot().State {
	case StateQueued:
		s.queued--
	case StateRunning:
		s.running--
	}
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateCanceled:
		s.canceled++
	}
	if waves != nil {
		s.memJobs = append(s.memJobs, j)
	}
	if j.client != "" {
		if s.clients[j.client]--; s.clients[j.client] <= 0 {
			delete(s.clients, j.client)
		}
	}
	j.mu.Lock()
	j.info.Finished = time.Now().UTC()
	j.info.State = state
	j.info.Error = errMsg
	j.info.Attempts = attempts
	j.result, j.waves, j.hadWaves = res, waves, hasWaves
	j.mu.Unlock()
	s.mu.Unlock()

	close(j.done)
	// Release the job's context now that it is terminal: a live child
	// context stays registered with the server's base context, so
	// skipping this would leak one context per completed job for the
	// process lifetime.
	j.cancel(errors.New("job finished"))
}

// journalTerminal records a terminal transition durably: results (and
// the spill of the waveform payload) for done jobs, an "interrupted"
// marker — not "canceled" — for jobs cut short by a drain deadline, so
// the next boot re-queues them. It reports whether the payload spilled.
func (s *Server) journalTerminal(j *job, state, errMsg string, res *Result, waves *wave.Set, attempts int) (spilled bool) {
	var err error
	switch {
	case state == StateDone:
		var raw json.RawMessage
		if raw, err = json.Marshal(res); err != nil {
			break
		}
		var loc *store.Loc
		var spillErr error
		if waves != nil && waves.Len() > 0 {
			// The spill is the one encode of this stream: every read
			// copies its section of a segment. It is on disk before the
			// result record that locates it is journaled.
			var l store.Loc
			l, spillErr = s.store.SpillWaves(j.id, func(w io.Writer) error {
				_, werr := trace.WriteNDJSON(w, waves, s.cfg.ChunkSamples)
				return werr
			})
			if spilled = spillErr == nil; spilled {
				loc = &l
				s.store.PruneWaves(s.cfg.MaxSpillWaves)
			}
		}
		if err = s.store.Result(j.id, raw, loc); err == nil {
			err = spillErr
		}
	case state == StateCanceled && errors.Is(context.Cause(j.ctx), errDrainCheckpoint):
		err = s.store.State(j.id, "interrupted", errMsg, attempts, false)
	default:
		err = s.store.State(j.id, state, errMsg, attempts, false)
	}
	if err != nil {
		s.met.storeErrors.Add(1)
	}
	return spilled
}

// runOne moves a job through running to a terminal state, retrying
// transient failures with jittered backoff.
func (s *Server) runOne(j *job) {
	wait := time.Since(j.snapshot().Submitted)
	s.met.observeQueueWait(wait)
	if j.ctx.Err() != nil {
		// Canceled (or drain-checkpointed, or timed out) while queued.
		state, msg := classifyCtx(j.ctx)
		if state == StateFailed {
			s.met.timeouts.Add(1)
		}
		s.finish(j, state, msg, nil, nil, 0)
		return
	}
	if s.cfg.QueueWaitMax > 0 && wait > s.cfg.QueueWaitMax {
		s.met.queueExpired.Add(1)
		s.finish(j, StateFailed, fmt.Sprintf("queue-wait deadline exceeded (waited %v, max %v)", wait.Round(time.Millisecond), s.cfg.QueueWaitMax), nil, nil, 0)
		return
	}
	s.mu.Lock()
	s.queued--
	s.running++
	s.mu.Unlock()
	j.mu.Lock()
	j.info.State = StateRunning
	j.info.Started = time.Now().UTC()
	j.mu.Unlock()
	if s.store != nil {
		if err := s.store.State(j.id, StateRunning, "", 1, false); err != nil {
			s.met.storeErrors.Add(1)
		}
	}

	var (
		res      *Result
		waves    *wave.Set
		err      error
		attempts int
	)
	for {
		attempts++
		if err = faultpoint.Hit(faultpoint.WorkerRun); err == nil {
			res, waves, err = s.runJob(j)
		}
		if err == nil || j.ctx.Err() != nil || attempts > s.cfg.MaxRetries || !IsTransient(err) {
			break
		}
		s.met.retries.Add(1)
		backoffSleep(j.ctx, s.cfg.RetryBackoff, attempts)
	}

	switch {
	case err == nil:
		s.finish(j, StateDone, "", res, waves, attempts)
	case j.ctx.Err() != nil && errors.Is(err, context.Cause(j.ctx)):
		// The error carries the cancellation cause: classify by what
		// canceled it. A genuine engine failure racing with a DELETE
		// must stay a failure, not masquerade as a user cancellation.
		state, _ := classifyCtx(j.ctx)
		if state == StateFailed {
			s.met.timeouts.Add(1)
		}
		s.finish(j, state, err.Error(), nil, nil, attempts)
	default:
		s.finish(j, StateFailed, err.Error(), nil, nil, attempts)
	}
}

// coordinated reports whether this job is a coordinator-mode mc batch:
// it fans out to replicas instead of running locally. Shard jobs
// themselves (req.Shard set) always run locally — a replica that is also
// configured with Replicas must not re-delegate its range.
func (s *Server) coordinated(kind string, req *SubmitRequest) bool {
	return len(s.cfg.Replicas) > 0 && kind == "mc" && req.Shard == nil
}

// runJob executes a job locally, or through the shard coordinator for
// coordinator-mode mc batches.
func (s *Server) runJob(j *job) (*Result, *wave.Set, error) {
	if !s.coordinated(j.kind, &j.req) {
		return j.run(s.met)
	}
	start := time.Now()
	res, waves, err := s.runMCCoordinated(j)
	s.met.observe(j.kind, time.Since(start))
	return res, waves, err
}

// classifyCtx maps a canceled job context onto its terminal state: a
// per-job timeout is a failure (the job, not the user, ran out), a
// drain checkpoint and a user cancel are both "canceled" in memory —
// the journal distinguishes them.
func classifyCtx(ctx context.Context) (state, msg string) {
	cause := context.Cause(ctx)
	if errors.Is(cause, errJobTimeout) {
		return StateFailed, fmt.Sprintf("%v", cause)
	}
	return StateCanceled, cause.Error()
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// writeJSON emits a JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already out; an encode failure here can only
	// be logged by the caller's middleware.
	_ = enc.Encode(v)
}

// writeError emits the uniform error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// reject emits an overload/limit rejection with a Retry-After hint
// (whole seconds, minimum 1 — the header has no sub-second form).
func reject(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, status, format, args...)
}

// clientID identifies the submitting client for rate limiting: the
// X-Client-ID header when present, else the remote address without the
// ephemeral port.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host := r.RemoteAddr
	for i := len(host) - 1; i >= 0; i-- {
		if host[i] == ':' {
			return host[:i]
		}
	}
	return host
}

// estWaitLocked estimates how long a new submission would wait in the
// queue: zero with a free worker and an empty queue, else the rounds
// ahead of it times the mean observed run time (1s prior when nothing
// has run yet). Capped at 2 minutes — it feeds Retry-After and the
// submit-time shed, not a scheduler.
func (s *Server) estWaitLocked() time.Duration {
	if s.queued == 0 && s.running < s.cfg.Workers {
		return 0
	}
	mean := s.met.meanRunTime()
	if mean <= 0 {
		mean = time.Second
	}
	rounds := s.queued/s.cfg.Workers + 1
	est := time.Duration(rounds) * mean
	if est > 2*time.Minute {
		est = 2 * time.Minute
	}
	return est
}

// handleSubmit parses, validates, rate-limits, compiles (or
// cache-hits), journals and enqueues. Submissions are idempotent by
// (DeckHash, kind, seed [+ result-affecting overrides]): a retry of a
// live or finished job returns the existing record with 200 instead of
// recomputing.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxDeckBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxDeckBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", s.cfg.MaxDeckBytes)
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request JSON: %v", err)
		return
	}
	if req.Deck == "" {
		writeError(w, http.StatusBadRequest, "request has no deck")
		return
	}
	client := clientID(r)
	if s.admit != nil {
		if ok, retryAfter := s.admit.allow(client, time.Now()); !ok {
			s.met.rateLimited.Add(1)
			reject(w, http.StatusTooManyRequests, retryAfter, "client %q over the submission rate limit (%.3g/s)", client, s.cfg.RatePerSec)
			return
		}
	}
	if err := faultpoint.Hit(faultpoint.Compile); err != nil {
		reject(w, http.StatusServiceUnavailable, time.Second, "compile unavailable: %v", err)
		return
	}
	entry, hit := s.cache.get(req.Deck)
	if entry.err != nil {
		writeError(w, http.StatusUnprocessableEntity, "deck does not parse: %v", entry.err)
		return
	}
	kind, plan, err := resolve(entry.deck, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := jobKey(entry.hash, kind, req, plan.Partition())

	// The deck text is only needed for the cache key, the (now done)
	// parse and the durable deck save; retained job records must not pin
	// up to MaxDeckBytes of netlist source each for the process
	// lifetime.
	deckSrc := req.Deck
	req.Deck = ""

	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		s.met.drainRejected.Add(1)
		reject(w, http.StatusServiceUnavailable, 5*time.Second, "server draining")
		return
	}
	if prior := s.keys[key]; prior != nil && !req.Fresh {
		// Failed and canceled jobs release their key: retrying those is
		// the point of a resubmission.
		if info := prior.snapshot(); info.State == StateQueued || info.State == StateRunning || info.State == StateDone {
			s.mu.Unlock()
			s.met.idempotent.Add(1)
			writeJSON(w, http.StatusOK, info)
			return
		}
	}
	if s.cfg.MaxClientJobs > 0 && s.clients[client] >= s.cfg.MaxClientJobs {
		retryAfter := s.estWaitLocked()
		s.mu.Unlock()
		s.met.clientCapRejected.Add(1)
		reject(w, http.StatusTooManyRequests, retryAfter, "client %q already has %d live jobs (max %d)", client, s.cfg.MaxClientJobs, s.cfg.MaxClientJobs)
		return
	}
	estWait := s.estWaitLocked()
	if s.cfg.QueueWaitMax > 0 && estWait > s.cfg.QueueWaitMax {
		s.mu.Unlock()
		s.met.queueRejected.Add(1)
		reject(w, http.StatusServiceUnavailable, estWait, "estimated queue wait %v exceeds the %v deadline", estWait.Round(time.Millisecond), s.cfg.QueueWaitMax)
		return
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.met.queueRejected.Add(1)
		reject(w, http.StatusServiceUnavailable, estWait, "job queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := s.newJob(id, key, client, req, entry, kind, plan)
	j.info.CacheHit = hit
	if s.coordinated(kind, &req) {
		// The coordinator re-submits the source verbatim to its replicas,
		// so this one job class keeps it past compilation.
		j.deckSrc = deckSrc
	}
	if s.store != nil {
		if err := s.journalSubmit(j, deckSrc); err != nil {
			s.nextID--
			s.mu.Unlock()
			j.cancel(err)
			s.met.storeErrors.Add(1)
			writeError(w, http.StatusInternalServerError, "journaling submission: %v", err)
			return
		}
	}
	select {
	case s.queue <- j:
	default:
		// Unreachable while sends are serialized under mu behind the
		// len==cap check; kept as the final guard.
		s.mu.Unlock()
		j.cancel(errors.New("queue full"))
		s.met.queueRejected.Add(1)
		reject(w, http.StatusServiceUnavailable, estWait, "job queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.keys[key] = j
	if client != "" {
		s.clients[client]++
	}
	s.queued++
	s.submitted++
	s.evictJobsLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// newJob builds a queued job record (caller holds s.mu).
func (s *Server) newJob(id, key, client string, req SubmitRequest, entry *deckEntry, kind string, plan *pipeline.Plan) *job {
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	if s.cfg.JobTimeout > 0 {
		// The deadline context is the child, so a user cancel (or
		// shutdown) still reports its own cause; only an actual
		// deadline expiry reports the timeout.
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadlineCause(ctx, time.Now().Add(s.cfg.JobTimeout),
			fmt.Errorf("%w after %v", errJobTimeout, s.cfg.JobTimeout))
		inner := cancel
		cancel = func(err error) { inner(err); dcancel() }
	}
	return &job{
		id:     id,
		key:    key,
		client: client,
		req:    req,
		entry:  entry,
		kind:   kind,
		plan:   plan,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		info: JobInfo{
			ID:        id,
			Key:       key,
			State:     StateQueued,
			Analysis:  kind,
			DeckHash:  entry.hash,
			Submitted: time.Now().UTC(),
		},
	}
}

// journalSubmit persists the deck source and the submit event.
func (s *Server) journalSubmit(j *job, deckSrc string) error {
	if err := s.store.SaveDeck(j.entry.hash, deckSrc); err != nil {
		return err
	}
	infoRaw, err := json.Marshal(j.info)
	if err != nil {
		return err
	}
	reqRaw, err := json.Marshal(j.req)
	if err != nil {
		return err
	}
	return s.store.Submit(j.id, j.key, j.entry.hash, infoRaw, reqRaw)
}

// evictJobsLocked drops the oldest finished job records above MaxJobs
// and the oldest in-memory stream payloads above MaxWaveJobs (those
// jobs keep their status and scalar result). Both walks start at the
// oldest entry and stop once the bound holds, so a submit touches only
// the front of s.order: the job or two it evicts, plus any live jobs
// parked ahead of them, which are never evicted.
func (s *Server) evictJobsLocked() {
	if excess := len(s.jobs) - s.cfg.MaxJobs; excess > 0 {
		live, i := 0, 0 // the live jobs passed over move to s.order[:live]
		for ; i < len(s.order) && excess > 0; i++ {
			id := s.order[i]
			j := s.jobs[id]
			if j == nil {
				continue
			}
			if !terminal(j.snapshot().State) {
				s.order[live] = id
				live++
				continue
			}
			if j.hasWaves() {
				j.dropWaves()
				s.memJobs = slices.DeleteFunc(s.memJobs, func(m *job) bool { return m == j })
			}
			if s.keys[j.key] == j {
				delete(s.keys, j.key)
			}
			delete(s.jobs, id)
			excess--
		}
		// Put the passed-over live jobs back, in order, just ahead of
		// the entries the walk never reached.
		cut := i - live
		copy(s.order[cut:i], s.order[:live])
		clear(s.order[:cut])
		s.order = s.order[cut:]
	}
	for len(s.memJobs) > s.cfg.MaxWaveJobs {
		s.memJobs[0].dropWaves()
		s.memJobs[0] = nil
		s.memJobs = s.memJobs[1:]
	}
}

// jobFor resolves the {id} path segment; nil means the response was
// already written.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]JobInfo, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			infos = append(infos, j.snapshot())
		}
	}
	s.mu.Unlock()
	// s.order is submission order already; no sort needed.
	writeJSON(w, http.StatusOK, JobList{Jobs: infos})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.cancel(fmt.Errorf("job %s canceled by %s %s", j.id, r.Method, r.URL.Path))
	writeJSON(w, http.StatusOK, j.snapshot())
}

// waitDone blocks until the job finishes or the request context ends;
// it reports whether the job finished.
func waitDone(r *http.Request, j *job) bool {
	select {
	case <-j.done:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if !waitDone(r, j) {
		return // client went away
	}
	info := j.snapshot()
	if info.State != StateDone {
		writeError(w, http.StatusConflict, "job %s %s: %s", j.id, info.State, info.Error)
		return
	}
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if !waitDone(r, j) {
		return
	}
	info := j.snapshot()
	if info.State != StateDone {
		writeError(w, http.StatusConflict, "job %s %s: %s", j.id, info.State, info.Error)
		return
	}
	j.mu.Lock()
	waves, hadWaves := j.waves, j.hadWaves
	j.mu.Unlock()
	if waves != nil {
		// Encode on this read, straight into the block loop through a
		// pipe: the stream holds one chunk line at a time, never the
		// whole body. Closing the reader stops an encoder the loop cut
		// off, so the goroutine never outlives the handler.
		pr, pw := io.Pipe()
		encoded := make(chan struct{})
		go func() {
			defer close(encoded)
			_, err := trace.WriteNDJSON(pw, waves, s.cfg.ChunkSamples)
			pw.CloseWithError(err)
		}()
		s.streamBlocks(w, r, pr)
		pr.Close()
		<-encoded
		return
	}
	if hadWaves && s.store != nil {
		if rc, ok := s.store.OpenWaves(j.id); ok {
			defer rc.Close()
			s.met.streamFromDisk.Add(1)
			s.streamBlocks(w, r, rc)
			return
		}
	}
	if hadWaves {
		writeError(w, http.StatusGone, "job %s waveforms were evicted (MaxWaveJobs/MaxSpillWaves bounds); resubmit the deck to regenerate them", j.id)
		return
	}
	// Some jobs (step sweeps) have only a scalar result document.
	w.WriteHeader(http.StatusNoContent)
}

// streamBlocks copies an encoded NDJSON stream (a job's spill file or
// the pipe its in-memory set is encoded into) to the client block by
// block. Each block write carries a StreamWriteTimeout deadline, so a
// stalled reader is cut off instead of pinning the handler forever;
// client cancellation and the stream-write fault point are checked
// before each block. Workers are never involved: streams run on the
// HTTP handler goroutine. A read error (an encode failure ends the
// pipe with one) leaves the client the complete lines before it and
// counts the stream as aborted.
func (s *Server) streamBlocks(w http.ResponseWriter, r *http.Request, src io.Reader) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	buf := make([]byte, 64<<10)
	for {
		if err := faultpoint.Hit(faultpoint.StreamWrite); err != nil {
			s.met.streamAborts.Add(1)
			return
		}
		if r.Context().Err() != nil {
			s.met.streamAborts.Add(1)
			return
		}
		n, rerr := src.Read(buf)
		if n > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
			if _, werr := w.Write(buf[:n]); werr != nil {
				s.met.streamAborts.Add(1)
				return
			}
			_ = rc.Flush()
		}
		if rerr != nil {
			if rerr != io.EOF {
				s.met.streamAborts.Add(1)
			}
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleHealth is liveness: 200 while the process serves HTTP at all,
// draining or not. Restart decisions key off this, so it must not flip
// during a graceful drain.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := map[string]string{"status": "ok"}
	if s.Draining() {
		status["draining"] = "true"
	}
	writeJSON(w, http.StatusOK, status)
}

// handleReady is drain-aware readiness: 503 as soon as a drain starts,
// so load balancers stop routing new submissions here while in-flight
// jobs finish (readiness flips before liveness ever would).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		reject(w, http.StatusServiceUnavailable, 5*time.Second, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
