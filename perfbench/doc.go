// Command perfbench is the repository benchmark. It runs three seeded,
// closed-loop workloads, one per user surface of Nano-Sim, and
// measures each end to end without tracing. A separate traced run times
// each layer from outside the program, by wrapping calls to the layer's
// exported entry points; the program itself carries no instrumentation.
//
// Run it from the repository root. run.sh builds nanosim, nanosimd and
// the perfbench binary from the checkout into .bench_build/ and runs one
// workload:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines above it start with
// '#' and print every metric by name and unit, fail_frac, the tail
// percentile with its sample count, and the host: nproc, GOMAXPROCS,
// the Go version and the CPU model.
//
// End-to-end ops use only stable surfaces: the nanosim and nanosimd
// binaries (flags, deck grammar, HTTP/JSON including /metrics) and the
// root nanosim package. Only the traced run calls internal packages.
// Every input is generated from the seed by this package (gen.go); it
// reads no testdata.
//
// # Workloads
//
// All three are closed loops: every caller waits for its result before
// it sends the next request. Threads, batch workers and client
// connections are fixed at 2, the CPU count of the host the workloads
// were sized on, and are not read from the host.
//
// subckt-pipeline (CLI). One nanosim process at a time runs a deck of
// 256 instances of one 4x4 RTD-mesh .subckt master, with .options
// partition, a 10 ns .tran, three .print nodes plotted to standard
// output and no CSV, at -j 2. Why: only here do parse, compile and the
// sparse partitioned run dominate, so routing .subckt decks through the
// hierarchical compiler and solver-kernel work must show here. It
// bypasses vary, serve and the dense backend.
//
// mc-yield (library). One caller runs nanosim.Vary in-process with
// Workers 2. An op is one batch of 200 trials on a FET-RTD inverter
// with RTD A and FET VTO spread and a 60 ns transient per trial; the
// limit on the final v(out) puts the yield strictly between 0 and 1.
// Why: per-trial work dominates. The circuit sits below linsolve.Auto's
// 8-unknown crossover, so every solve is a full dense factorization.
// Device evaluation, dense LU, step control, waveform recording,
// clone/perturb and aggregation show here, and so would deleting the
// dense backend. It bypasses parse, compile, sparse LU and serve.
//
// serve-mixed (service). nanosimd runs on loopback with -workers 2 and
// a durable -data dir. Two clients each loop: submit a fresh job, wait
// for its result, read its NDJSON stream to the end. Each client
// repeats a seeded 40-op cycle: 22 ops of one small RTD-divider
// transient, so the median op falls inside that deck's latency mode;
// 2 each of dc, ac, em, set, mc (8 trials) and step; and 2 each of
// three .subckt decks of 2, 3 and 4 stages that share one 3x3 master.
// Four ops a cycle carry a deck title the compile cache has never
// seen, two of them from the .subckt family, so a tenth of the
// submissions miss and the rest hit. Clients stop at a cycle boundary,
// so every run sees the exact mix. Why:
// HTTP/JSON, admission, queueing, the deck cache and solver pool,
// journal and spill writes and stream reads dominate, and the engines
// are small. The small decks of every kind also cover the CLI's deck
// grammar through the service.
//
// # End-to-end metrics
//
// Each is reported for every workload, from untraced runs only.
//
//	setup_s        s     one-time work before the first op, no warm-up op
//	                     inside: nanosimd start to /readyz 200 plus one
//	                     pass over the distinct decks (serve-mixed); the
//	                     binary's start-up on a minimal deck
//	                     (subckt-pipeline); building the circuit and the
//	                     options through the root API, parsing their
//	                     SPICE values (mc-yield). The median of repeated
//	                     set-ups spread over the run.
//	lat_p50_ms     ms    median op latency: one CLI exec from start to
//	                     exit, one Vary batch, or one submit through to
//	                     the stream fully read
//	lat_tail_ms    ms    the highest of p50/p75/p90/p95/p99/p99.9 with at
//	                     least 10 samples beyond it; the percentile and
//	                     sample count are printed beside it
//	ops_per_s      1/s   ops completed per second of the timed phase
//	cpu_ms_per_op  ms    user+sys CPU of the program per op: the CLI
//	                     child's rusage, this process's for mc-yield,
//	                     the nanosimd process's
//	rss_peak_mb    MiB   median per-process peak for the CLI, otherwise
//	                     the process high-water mark
//	ok_frac        frac  1 - fail_frac; fail_frac is failed / attempted
//	                     ops and is printed too. An op fails when its
//	                     exit status or HTTP codes are unexpected, its
//	                     result does not decode, its trial or failure
//	                     counts do not match the request, or its values
//	                     differ from the first op's: every engine here
//	                     is deterministic at any worker count.
//
// ok_frac stands in for fail_frac among the gated metrics because a
// regression bound is a share of the parent's median, which a metric
// that reads 0 cannot carry.
//
// # Per-layer metrics and the end-to-end metric each should move
//
// The traced run reports every per-layer metric on every workload; a
// layer the workload bypasses reads 0. Counts are deterministic for a
// seed. trace.op_ms is the median traced op total and
// trace.unattributed_frac the median share of an op that no child span
// covers. Each traced run prints its op total beside the median of
// untraced ops run in the same process.
//
// subckt-pipeline: the traced run alternates the CLI op with the same
// work in-process, netparse.Parse -> core.NewCompiledTransient ->
// WarmBlocks -> Run, with the options the CLI uses, and checks that the
// in-process run reproduces the CLI's counts and plot.
//
//	netparse.parse_ms, core.construct_ms,   lat_p50_ms, cpu_ms_per_op
//	core.warm_ms, core.run_ms
//	core.steps, core.rejected,              explain core.run_ms
//	core.device_evals, core.block_solves,
//	core.dormant_frac, part.blocks,
//	part.tears, linsolve.full_factors,
//	linsolve.numeric_refactors,
//	linsolve.pattern_rebuilds
//	cli.unattributed_ms                     lat_p50_ms: the CLI op's median
//	                                        minus the traced op total, i.e.
//	                                        process start and output
//
// mc-yield: nanosim.Vary is one span; nanosim.Transient on the nominal
// circuit is timed separately and must reproduce the batch's nominal
// run. vary.overhead_ms_per_trial is the worker time per trial,
// vary.batch_ms x 2 / trials, minus vary.engine_ms_per_trial.
//
//	vary.batch_ms, vary.engine_ms_per_trial,  lat_p50_ms, cpu_ms_per_op
//	vary.overhead_ms_per_trial
//	vary.trials, vary.failed_trials,          dense-vs-sparse and
//	core.steps_per_trial,                     step-control changes
//	core.device_evals_per_trial,
//	linsolve.full_factors_per_trial,
//	linsolve.numeric_refactors_per_trial
//
// Both in-process workloads: runtime.alloc_mb_per_op and
// runtime.gc_per_op, from runtime.MemStats deltas around the op, move
// cpu_ms_per_op.
//
// serve-mixed: client-side spans (op -> submit, result, stream) and
// /metrics deltas over the timed phase; every other client cycle runs
// without spans. Each traced job's queue wait is read after the op
// from the submitted and started stamps of its status document.
//
//	serve.submit_ms_p50                       lat_p50_ms (write path, hits)
//	serve.submit_miss_ms_p50                  lat_tail_ms (write path, misses)
//	serve.result_ms_p50,                      lat_tail_ms (waiting)
//	serve.queue_wait_ms_p99
//	serve.stream_ms_p50,                      lat_p50_ms, ops_per_s (read path)
//	serve.stream_kb_per_op
//	serve.engine_ms.<kind>                    ops_per_s, cpu_ms_per_op: mean
//	                                          engine ms per job of the kind
//	serve.cache_hit_frac,                     lat_p50_ms: useful-work ratios
//	serve.solver_warm_frac,                   and pre-warmed solver sets per
//	serve.masters_prewarmed                   op (serve/masters.go)
//	serve.retries, serve.store_errors,        fail_frac, cpu_ms_per_op
//	store.journal_kb_per_op,
//	store.spill_kb_per_op
//
// hier, the tran baselines and dcop are on no user path of these
// workloads and get no metric.
//
// # Measured at this commit
//
// On a 2-vCPU Intel Xeon virtual machine with Go 1.24, medians of ten
// 30 s runs, seeds 1-10:
//
//	workload         lat_p50_ms  lat_tail_ms  ops_per_s  cpu_ms_per_op  setup_s   rss_peak_mb
//	subckt-pipeline  260         292 (p90)    3.85       318            0.0023    24.0
//	mc-yield         42.2        52.9 (p95)   23.7       73.8           0.000019  14.5
//	serve-mixed      8.00        21.4 (p99)   233        5.76           0.063     31.9
//
// fail_frac was 0 on every run, with every op checked. Traced shares
// at seed 1, each layer's self time as a share of the traced op:
//
//	subckt-pipeline  parse 13%, construct 7%, warm 11%, run 69%. Traced
//	                 op 215 ms beside the CLI op's 218 ms; the CLI adds
//	                 about 3 ms of process start and output.
//	mc-yield         per trial, 0.30 ms engine and 0.08 ms overhead of
//	                 worker time (78% / 22% of vary.batch_ms); 219 dense
//	                 full factorizations and 204 steps per trial. Traced
//	                 op 38.0 ms beside the untraced 37.8 ms.
//	serve-mixed      submit 16% (hits) + 3% (misses), result 53%,
//	                 stream 26%, unattributed 3%. Traced op 6.8 ms beside
//	                 the untraced 6.9 ms.
//
// The host's speed drifts. Steal ran from 0 to 12% of CPU time from
// one run to the next, and CPU time per op moved by up to 20% between
// sets of runs. In three sets of ten runs over an hour the spreads
// (interquartile range over median) of the timing metrics came out at
// 0.03-0.22, highest on the tails, which follow steal most closely.
// Two back-to-back sets agreed within 10%; across the hour the set
// medians moved by up to 27% (serve-mixed lat_tail_ms) as the host
// went from a slow spell to a fast one. That is why the regression
// bounds in BENCHMARK.json sit at 0.24, setup_s at 0.25.
package main
