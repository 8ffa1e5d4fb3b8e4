package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nanosim/internal/serve/store"
)

// metrics aggregates the service counters exposed at /metrics. All
// fields are safe for concurrent update; the snapshot marshals to the
// expvar-style JSON document of MetricsSnapshot. Job lifecycle counters
// (submitted/completed/...) live on the Server under its mutex instead,
// so a snapshot's job section is internally consistent.
type metrics struct {
	deckCompiles atomic.Int64 // cache entries built (parse + compile)
	deckHits     atomic.Int64 // submissions served from the cache
	deckEvicted  atomic.Int64 // entries dropped by the LRU bound

	solverCheckouts atomic.Int64 // compiled-state checkouts handed to jobs
	solverWarm      atomic.Int64 // checkouts that replayed a warmed sequence
	solverDropped   atomic.Int64 // checkouts discarded (diverged or failed)
	solverPreWarmed atomic.Int64 // extra pre-warmed sets cloned for hot masters

	rateLimited       atomic.Int64 // 429s from the per-client token bucket
	clientCapRejected atomic.Int64 // 429s from the per-client live-job cap
	queueRejected     atomic.Int64 // 503s from queue capacity / wait estimate
	drainRejected     atomic.Int64 // 503s while draining
	idempotent        atomic.Int64 // submissions answered by an existing job
	retries           atomic.Int64 // transient-failure re-runs
	timeouts          atomic.Int64 // jobs failed by the per-job deadline
	queueExpired      atomic.Int64 // jobs failed by the queue-wait deadline

	coordDispatched atomic.Int64 // shard attempts sent to replicas
	coordRetries    atomic.Int64 // shard attempts failed over to another replica
	coordMerged     atomic.Int64 // coordinated jobs merged successfully
	coordFailed     atomic.Int64 // coordinated jobs failed (retries exhausted)

	storeErrors    atomic.Int64 // journal/spill writes that failed
	streamAborts   atomic.Int64 // streams cut off (slow reader, fault, gone client)
	streamFromDisk atomic.Int64 // streams served from the spill

	mu        sync.Mutex
	latency   map[string]*hist // per analysis kind, engine run time
	queueWait hist             // submit → dequeue
}

func newMetrics() *metrics {
	return &metrics{latency: map[string]*hist{}}
}

// hist is a log-scale latency histogram: bucket i spans
// [histBase·2^i, histBase·2^(i+1)) milliseconds, which keeps relative
// quantile error under ~41% per bucket (geometric midpoint) across nine
// decades — plenty for a p99 an operator reads off a dashboard.
type hist struct {
	count   int64
	totalMs float64
	maxMs   float64
	buckets [histBuckets]int64
}

const (
	histBase    = 1e-3 // 1µs in ms
	histBuckets = 48
)

func (h *hist) add(ms float64) {
	h.count++
	h.totalMs += ms
	if ms > h.maxMs {
		h.maxMs = ms
	}
	i := 0
	if ms > histBase {
		i = int(math.Log2(ms/histBase)) + 1
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i]++
}

// quantile returns the q-th latency quantile in ms (geometric bucket
// midpoint), or 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count-1))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return histBase / 2
			}
			lo := histBase * math.Exp2(float64(i-1))
			mid := lo * math.Sqrt2
			if mid > h.maxMs {
				return h.maxMs
			}
			return mid
		}
	}
	return h.maxMs
}

func (h *hist) bucket() LatencyBucket {
	return LatencyBucket{
		Count:   h.count,
		TotalMs: h.totalMs,
		MaxMs:   h.maxMs,
		P50Ms:   h.quantile(0.50),
		P99Ms:   h.quantile(0.99),
	}
}

// LatencyBucket is one histogram's wire form.
type LatencyBucket struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MaxMs   float64 `json:"max_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// observe records one finished run of the given analysis kind.
func (m *metrics) observe(kind string, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	m.mu.Lock()
	h := m.latency[kind]
	if h == nil {
		h = &hist{}
		m.latency[kind] = h
	}
	h.add(ms)
	m.mu.Unlock()
}

// observeQueueWait records one job's submit → dequeue wait.
func (m *metrics) observeQueueWait(d time.Duration) {
	m.mu.Lock()
	m.queueWait.add(float64(d.Nanoseconds()) / 1e6)
	m.mu.Unlock()
}

// meanRunTime is the mean engine run time across every kind, feeding
// the Retry-After estimate. Zero until something has run.
func (m *metrics) meanRunTime() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var count int64
	var total float64
	for _, h := range m.latency {
		count += h.count
		total += h.totalMs
	}
	if count == 0 {
		return 0
	}
	return time.Duration(total / float64(count) * float64(time.Millisecond))
}

// CacheMetrics is the deck-compile cache section of /metrics.
type CacheMetrics struct {
	// Compiles counts cache entries built: one parse + pattern/symbolic
	// compile per distinct deck content. The load-test invariant is that
	// N concurrent submissions of one deck leave this at 1.
	Compiles int64 `json:"compiles"`
	// Hits counts submissions that found their deck already compiled.
	Hits int64 `json:"hits"`
	// Evicted counts entries dropped by the LRU bound.
	Evicted int64 `json:"evicted"`
	// Entries is the current cache size.
	Entries int `json:"entries"`
}

// SolverMetrics is the compiled-solver checkout section of /metrics.
type SolverMetrics struct {
	// Checkouts counts solver-state checkouts handed to jobs.
	Checkouts int64 `json:"checkouts"`
	// Warm counts checkouts that replayed an already-warmed stamp
	// sequence (the job skipped symbolic analysis entirely).
	Warm int64 `json:"warm"`
	// Dropped counts checkouts discarded instead of returned (stamp
	// sequence diverged, or the job failed).
	Dropped int64 `json:"dropped"`
	// PreWarmed counts extra solver sets cloned into free lists for
	// hot-master decks (warm-pool pre-sizing; see deckEntry.checkin).
	PreWarmed int64 `json:"pre_warmed"`
}

// MasterMetrics is the subcircuit-master demand section of /metrics:
// masters tracked across all decks by (master hash, model set) key, and
// how many have crossed the pre-warm threshold.
type MasterMetrics struct {
	Tracked int `json:"tracked"`
	Hot     int `json:"hot"`
}

// JobMetrics is the job-lifecycle section of /metrics. The counters are
// captured under one lock, so every snapshot satisfies
// submitted == queued + running + completed + failed + canceled.
type JobMetrics struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
}

// AdmissionMetrics is the shed/overload section of /metrics.
type AdmissionMetrics struct {
	// RateLimited counts 429s from the per-client token bucket;
	// ClientCapRejected counts 429s from the per-client live-job cap.
	RateLimited       int64 `json:"rate_limited"`
	ClientCapRejected int64 `json:"client_cap_rejected"`
	// QueueRejected counts 503s shed for queue capacity or an estimated
	// wait past the deadline; DrainRejected counts 503s while draining.
	QueueRejected int64 `json:"queue_rejected"`
	DrainRejected int64 `json:"drain_rejected"`
	// IdempotentHits counts submissions answered by an existing job with
	// the same idempotency key.
	IdempotentHits int64 `json:"idempotent_hits"`
	// Retries counts transient-failure re-runs; Timeouts jobs failed by
	// the per-job deadline; QueueExpired jobs failed by the queue-wait
	// deadline after admission.
	Retries      int64 `json:"retries"`
	Timeouts     int64 `json:"timeouts"`
	QueueExpired int64 `json:"queue_expired"`
	// QueueWait is the submit → dequeue wait histogram;
	// OldestQueuedMs how long the oldest still-queued job has waited.
	QueueWait      LatencyBucket `json:"queue_wait_ms"`
	OldestQueuedMs float64       `json:"oldest_queued_ms"`
}

// CoordMetrics is the shard-coordinator section of /metrics (present
// only when Replicas are configured).
type CoordMetrics struct {
	// Replicas is the configured worker count.
	Replicas int `json:"replicas"`
	// Dispatched counts shard attempts sent to replicas (including
	// failover re-dispatches).
	Dispatched int64 `json:"dispatched"`
	// Retries counts shard attempts that failed (error, timeout, dead
	// replica) and were failed over to another replica.
	Retries int64 `json:"retries"`
	// Merged counts coordinated mc jobs whose shards merged successfully;
	// Failed those that exhausted their shard retries.
	Merged int64 `json:"merged"`
	Failed int64 `json:"failed"`
}

// StreamMetrics is the NDJSON streaming section of /metrics.
type StreamMetrics struct {
	// Aborts counts streams cut off early (slow reader past the write
	// deadline, client gone, injected fault).
	Aborts int64 `json:"aborts"`
	// FromDisk counts streams served from the durable spill: with a
	// data dir, every stream of a job whose spill succeeded.
	FromDisk int64 `json:"from_disk"`
}

// MetricsSnapshot is the /metrics response document.
type MetricsSnapshot struct {
	DeckCache CacheMetrics     `json:"deck_cache"`
	Solver    SolverMetrics    `json:"solver"`
	Masters   MasterMetrics    `json:"masters"`
	Jobs      JobMetrics       `json:"jobs"`
	Admission AdmissionMetrics `json:"admission"`
	Streams   StreamMetrics    `json:"streams"`
	// Coordinator reports shard fan-out (absent unless this server runs
	// in coordinator mode).
	Coordinator *CoordMetrics `json:"coordinator,omitempty"`
	// Store is the durable job store's I/O accounting (absent without a
	// data dir); StoreErrors counts journal/spill writes that failed.
	Store       *store.Counters `json:"store,omitempty"`
	StoreErrors int64           `json:"store_errors"`
	// EngineLatency maps analysis kind ("tran", "mc", ...) to its
	// run-duration histogram.
	EngineLatency map[string]LatencyBucket `json:"engine_latency_ms"`
}

// snapshot captures the counters; cache entries, job counters and the
// oldest queue wait are supplied by the server, which owns that state.
func (m *metrics) snapshot(entries int, masters MasterMetrics, jobs JobMetrics, oldestQueued time.Duration, sc *store.Counters) MetricsSnapshot {
	snap := MetricsSnapshot{
		DeckCache: CacheMetrics{
			Compiles: m.deckCompiles.Load(),
			Hits:     m.deckHits.Load(),
			Evicted:  m.deckEvicted.Load(),
			Entries:  entries,
		},
		Solver: SolverMetrics{
			Checkouts: m.solverCheckouts.Load(),
			Warm:      m.solverWarm.Load(),
			Dropped:   m.solverDropped.Load(),
			PreWarmed: m.solverPreWarmed.Load(),
		},
		Masters: masters,
		Jobs:    jobs,
		Admission: AdmissionMetrics{
			RateLimited:       m.rateLimited.Load(),
			ClientCapRejected: m.clientCapRejected.Load(),
			QueueRejected:     m.queueRejected.Load(),
			DrainRejected:     m.drainRejected.Load(),
			IdempotentHits:    m.idempotent.Load(),
			Retries:           m.retries.Load(),
			Timeouts:          m.timeouts.Load(),
			QueueExpired:      m.queueExpired.Load(),
			OldestQueuedMs:    float64(oldestQueued.Nanoseconds()) / 1e6,
		},
		Streams: StreamMetrics{
			Aborts:   m.streamAborts.Load(),
			FromDisk: m.streamFromDisk.Load(),
		},
		Store:         sc,
		StoreErrors:   m.storeErrors.Load(),
		EngineLatency: map[string]LatencyBucket{},
	}
	m.mu.Lock()
	for k, h := range m.latency {
		snap.EngineLatency[k] = h.bucket()
	}
	snap.Admission.QueueWait = m.queueWait.bucket()
	m.mu.Unlock()
	return snap
}
