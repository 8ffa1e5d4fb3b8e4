package main

import (
	"math"
	"sort"
	"time"
)

// spec names one reported metric and its unit. The two lists mirror
// BENCHMARK.json (TestMetricListsMatchBenchmarkJSON keeps them equal).
type spec struct{ name, unit string }

// endToEnd is what a user of each surface sees, measured untraced.
// ok_frac is 1 - fail_frac: a regression bound is a share of the
// parent's median, which a metric that reads 0 cannot carry.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
	{"ok_frac", "frac"},
}

// perLayer is the traced split. A traced run reports every entry; the
// layers a workload bypasses read 0.
var perLayer = []spec{
	{"trace.op_ms", "ms"},
	{"trace.unattributed_frac", "frac"},

	{"netparse.parse_ms", "ms"},
	{"core.construct_ms", "ms"},
	{"core.warm_ms", "ms"},
	{"core.run_ms", "ms"},
	{"cli.unattributed_ms", "ms"},
	{"core.steps", "count"},
	{"core.rejected", "count"},
	{"core.device_evals", "count"},
	{"core.block_solves", "count"},
	{"core.dormant_frac", "frac"},
	{"part.blocks", "count"},
	{"part.tears", "count"},
	{"linsolve.full_factors", "count"},
	{"linsolve.numeric_refactors", "count"},
	{"linsolve.pattern_rebuilds", "count"},

	{"vary.batch_ms", "ms"},
	{"vary.engine_ms_per_trial", "ms"},
	{"vary.overhead_ms_per_trial", "ms"},
	{"vary.trials", "count"},
	{"vary.failed_trials", "count"},
	{"core.steps_per_trial", "count"},
	{"core.device_evals_per_trial", "count"},
	{"linsolve.full_factors_per_trial", "count"},
	{"linsolve.numeric_refactors_per_trial", "count"},

	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_per_op", "count"},

	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_miss_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.stream_ms_p50", "ms"},
	{"serve.stream_kb_per_op", "KiB"},
	{"serve.engine_ms.tran", "ms"},
	{"serve.engine_ms.dc", "ms"},
	{"serve.engine_ms.ac", "ms"},
	{"serve.engine_ms.em", "ms"},
	{"serve.engine_ms.set", "ms"},
	{"serve.engine_ms.mc", "ms"},
	{"serve.engine_ms.step", "ms"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.solver_warm_frac", "frac"},
	{"serve.masters_prewarmed", "1/op"},
	{"serve.retries", "count"},
	{"serve.store_errors", "count"},
	{"store.journal_kb_per_op", "KiB"},
	{"store.spill_kb_per_op", "KiB"},
}

func listed(specs []spec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}

// phase is one untraced timed phase: every op's latency plus the
// program's resource use over the phase.
type phase struct {
	lat     []float64 // per-op latency, ms
	elapsed time.Duration
	cpu     time.Duration // the program's user+sys CPU over the phase
	rssMB   float64
	setup   []float64 // seconds, one per repeated set-up
}

// setEndToEnd fills the end-to-end metrics from a phase. No metric
// comes from a single sample: set-up is the median of several, and the
// tail is a percentile with at least tailBeyond samples above it.
func (r *report) setEndToEnd(p phase) {
	n := float64(len(p.lat))
	r.set("setup_s", median(p.setup), "s")
	r.set("lat_p50_ms", median(p.lat), "ms")
	pct, v, beyond := tail(p.lat)
	r.set("lat_tail_ms", v, "ms")
	r.note("lat_tail_ms is p%g of %d ops (%d beyond); setup_s is the median of %d set-ups",
		pct, len(p.lat), beyond, len(p.setup))
	s := sorted(p.lat)
	r.note("latency ms: min %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g max %.4g",
		s[0], s[rank(len(s), 25)-1], s[rank(len(s), 50)-1], s[rank(len(s), 75)-1], s[rank(len(s), 90)-1], s[len(s)-1])
	r.set("ops_per_s", n/p.elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_op", ms(p.cpu)/n, "ms")
	r.set("rss_peak_mb", p.rssMB, "MiB")
	r.set("ok_frac", 1-r.ops.failFrac(), "frac")
}

// tailBeyond is the fewest samples a reported tail percentile must
// have above it.
const tailBeyond = 10

// tailLadder lists the percentiles lat_tail_ms may report. A fixed
// ladder keeps the reported percentile the same across runs whose op
// counts differ by a few.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tail returns the highest ladder percentile of xs with at least
// tailBeyond samples beyond it, its value and that sample count. With
// too few samples for any rung it returns the maximum (p100).
func tail(xs []float64) (pct, v float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 100, math.NaN(), 0
	}
	pct, v, beyond = 100, s[n-1], 0
	for _, p := range tailLadder {
		k := rank(n, p)
		if n-k < tailBeyond {
			break
		}
		pct, v, beyond = p, s[k-1], n-k
	}
	return pct, v, beyond
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	return min(max(k, 1), n)
}

// median is the middle of xs, the mean of the two middle values for an
// even count.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
