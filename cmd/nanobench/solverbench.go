package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"nanosim/internal/core"
	"nanosim/internal/device"
	"nanosim/internal/exp"
	"nanosim/internal/hier"
	"nanosim/internal/hier/hiertest"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
	"nanosim/internal/spmat"
	"nanosim/internal/vary"
	"nanosim/internal/wave"
)

// SolverBenchEntry is one backend × size measurement of the per-step
// hot path (Reset → restamp → Solve with pattern-stable values).
type SolverBenchEntry struct {
	Backend     string  `json:"backend"`
	N           int     `json:"n"`
	NsPerStep   float64 `json:"ns_per_step"`
	AllocsPerOp int64   `json:"allocs_per_step"`
	BytesPerOp  int64   `json:"bytes_per_step"`
}

// VarySmoke records the process-variation batch smoke: a 32-trial
// Monte Carlo on the FET-RTD inverter, asserting same-seed determinism
// across worker counts and reporting the per-trial cost with the
// per-worker solver-state reuse engaged.
type VarySmoke struct {
	Trials          int     `json:"trials"`
	Workers         int     `json:"workers"`
	Deterministic   bool    `json:"deterministic_vs_workers_1"`
	NsPerTrial      float64 `json:"ns_per_trial"`
	NumericRefactor int     `json:"numeric_refactors"`
	FullFactor      int     `json:"full_factorizations"`
	Yield           float64 `json:"yield"`
}

// PartitionBench records the torn-block engine against the monolithic
// one on the mostly-quiescent RTD pipeline (exp.RTDPipeline): the
// latency-exploitation speedup the partition exists for, plus the
// accuracy cost, tracked PR to PR.
type PartitionBench struct {
	Stages        int     `json:"stages"`
	Nodes         int     `json:"nodes"`
	Blocks        int     `json:"blocks"`
	Tears         int     `json:"tears"`
	MonolithicMs  float64 `json:"monolithic_ms"`
	PartitionedMs float64 `json:"partitioned_ms"`
	Speedup       float64 `json:"speedup"`
	BlockSolves   int64   `json:"block_solves"`
	BlockSkips    int64   `json:"dormant_block_steps_skipped"`
	SkipFraction  float64 `json:"dormant_skip_fraction"`
	MaxAbsDevV    float64 `json:"max_abs_deviation_v"`
}

// HierCompileBench records the hierarchical deck-compile path against
// flatten-and-compile on the 4096-stage subcircuit pipeline: the same
// deck and assertion the internal/hier acceptance test runs, with the
// wall-times, the masters-vs-flattened compiled dimensions, and the
// bit-identity cross-check recorded PR to PR.
type HierCompileBench struct {
	Stages int `json:"stages"`
	// Nodes is the flattened deck's node count (peak instantiated size).
	Nodes int `json:"nodes"`
	// Blocks and Groups compare partition blocks against the congruence
	// classes the hierarchical compiler actually compiled.
	Blocks int `json:"blocks"`
	Groups int `json:"groups"`
	// MaterializedDim vs TotalDim: compiled system rows paid (one donor
	// per master class) vs rows the flat path compiles.
	MaterializedDim int     `json:"materialized_dim"`
	TotalDim        int     `json:"flattened_dim"`
	SharingFactor   float64 `json:"sharing_factor"`
	FlattenMs       float64 `json:"flatten_compile_ms"`
	HierMs          float64 `json:"hier_compile_ms"`
	Speedup         float64 `json:"speedup"`
	BitIdentical    bool    `json:"bit_identical"`
}

// SolverBenchReport is the machine-readable solver perf record emitted
// as BENCH_solver.json so the hot-path trajectory is tracked PR to PR.
type SolverBenchReport struct {
	Schema     string             `json:"schema"`
	GoVersion  string             `json:"go_version"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Timestamp  string             `json:"timestamp"`
	Workload   string             `json:"workload"`
	Crossover  int                `json:"auto_crossover"`
	Results    []SolverBenchEntry `json:"results"`
	SpeedupVs  string             `json:"speedup_vs"`
	MinSpeedup float64            `json:"min_speedup_n200_plus"`
	Vary       *VarySmoke         `json:"vary_smoke,omitempty"`
	Partition  *PartitionBench    `json:"partition_bench,omitempty"`
	Hier       *HierCompileBench  `json:"hier_compile,omitempty"`
}

// runSolverBench measures the per-step solver cost across sizes and
// backends and writes the JSON report to path.
func runSolverBench(path string) error {
	sizes := []int{16, 32, 64, 200, 512}
	rep := SolverBenchReport{
		Schema:     "nanosim/bench-solver/v1",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Workload:   "tridiagonal ladder + source incidence; Reset/restamp/Solve per step",
		Crossover:  linsolve.AutoCrossover,
		SpeedupVs:  "sparse-naive (map triplet + full min-degree factorization per step, the pre-PR hot path)",
	}

	measure := func(fn func(b *testing.B)) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
	}

	naive := map[int]float64{}
	compiled := map[int]float64{}
	for _, n := range sizes {
		rhs := make([]float64, n)
		rhs[0] = 1
		out := make([]float64, n)

		{
			s := linsolve.NewDense(n, nil)
			r := measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					exp.StampLadderSystem(s, n, 1e-3+1e-9*float64(i%7))
					if err := s.Solve(rhs, out); err != nil {
						b.Fatal(err)
					}
				}
			})
			rep.Results = append(rep.Results, entry("dense", n, r))
		}

		s := linsolve.NewSparse(n, nil)
		exp.StampLadderSystem(s, n, 1e-3)
		if err := s.Solve(rhs, out); err != nil {
			return err
		}
		r := measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exp.StampLadderSystem(s, n, 1e-3+1e-9*float64(i%7))
				if err := s.Solve(rhs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Results = append(rep.Results, entry("sparse", n, r))
		compiled[n] = float64(r.NsPerOp())

		t := spmat.NewTriplet(n, n)
		r = measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Zero()
				exp.StampLadderEntries(t, n, 1e-3+1e-9*float64(i%7))
				f, err := spmat.Factor(t, nil)
				if err != nil {
					b.Fatal(err)
				}
				f.Solve(rhs, out, nil)
			}
		})
		rep.Results = append(rep.Results, entry("sparse-naive", n, r))
		naive[n] = float64(r.NsPerOp())
	}

	rep.MinSpeedup = 0
	for _, n := range sizes {
		if n < 200 || compiled[n] == 0 {
			continue
		}
		sp := naive[n] / compiled[n]
		if rep.MinSpeedup == 0 || sp < rep.MinSpeedup {
			rep.MinSpeedup = sp
		}
	}

	smoke, err := runVarySmoke()
	if err != nil {
		return err
	}
	rep.Vary = smoke

	pb, err := runPartitionBench()
	if err != nil {
		return err
	}
	rep.Partition = pb

	hb, err := runHierCompileBench()
	if err != nil {
		return err
	}
	rep.Hier = hb

	for _, e := range rep.Results {
		fmt.Printf("%-14s n=%-4d %12.0f ns/step  %4d allocs/step\n",
			e.Backend, e.N, e.NsPerStep, e.AllocsPerOp)
	}
	fmt.Printf("auto crossover: %d; min speedup vs naive at n>=200: %.1fx\n",
		rep.Crossover, rep.MinSpeedup)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runVarySmoke runs the 32-trial process-variation batch on the RTD
// chain (sparse backend, so solver-state reuse is visible) and asserts
// same-seed determinism between Workers=1 and all-core runs.
func runVarySmoke() (*VarySmoke, error) {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	batch := func(w int) (*vary.Result, error) {
		return vary.MonteCarlo(exp.RTDChain(16, device.DC(0.8)), vary.Options{
			Trials:  32,
			Seed:    20050307,
			Workers: w,
			Specs:   []vary.Spec{{Elem: "N*", Param: "A", Sigma: 0.05, Rel: true}},
			Job: vary.Job{Analysis: "tran", Tran: core.Options{
				TStop: 10e-9, HInit: 0.25e-9}},
			Signals: []string{"v(n0)"},
			Limits:  []vary.Limit{{Signal: "v(n0)", Stat: "final", Lo: 0, Hi: 1.5}},
		})
	}
	r1, err := batch(1)
	if err != nil {
		return nil, fmt.Errorf("vary smoke (workers=1): %w", err)
	}
	start := time.Now()
	rN, err := batch(workers)
	if err != nil {
		return nil, fmt.Errorf("vary smoke (workers=%d): %w", workers, err)
	}
	elapsed := time.Since(start)
	s1, sN := r1.Signal("v(n0)"), rN.Signal("v(n0)")
	deterministic := r1.Yield == rN.Yield
	for i := range s1.Final {
		if s1.Final[i] != sN.Final[i] || s1.Min[i] != sN.Min[i] || s1.Max[i] != sN.Max[i] {
			deterministic = false
			break
		}
	}
	smoke := &VarySmoke{
		Trials:          rN.Trials,
		Workers:         workers,
		Deterministic:   deterministic,
		NsPerTrial:      float64(elapsed.Nanoseconds()) / float64(rN.Trials),
		NumericRefactor: rN.Solve.NumericRefactor,
		FullFactor:      rN.Solve.FullFactor,
		Yield:           rN.Yield,
	}
	fmt.Printf("vary smoke: %d trials, %.0f ns/trial at %d workers, %d numeric refactors / %d full, deterministic=%v\n",
		smoke.Trials, smoke.NsPerTrial, workers, smoke.NumericRefactor, smoke.FullFactor, deterministic)
	if !deterministic {
		return nil, fmt.Errorf("vary smoke: Workers=1 and Workers=%d batches differ for the same seed", workers)
	}
	return smoke, nil
}

// runPartitionBench times the monolithic and torn-block engines on the
// >= 1k-node mostly-quiescent RTD pipeline and cross-checks their
// waveforms; only the pulsed head of the pipeline (and its immediate
// neighborhood) should ever solve once dormancy engages.
func runPartitionBench() (*PartitionBench, error) {
	const stages, pulsed = 1024, 4
	opt := core.Options{TStop: 20e-9, HInit: 0.1e-9}

	ckt := exp.RTDPipeline(stages, pulsed)
	runtime.GC() // don't bill earlier benchmarks' garbage to either engine
	start := time.Now()
	mono, err := core.Transient(ckt, opt)
	if err != nil {
		return nil, fmt.Errorf("partition bench (monolithic): %w", err)
	}
	monoMs := float64(time.Since(start).Nanoseconds()) / 1e6

	opt.Partition = &part.Options{}
	runtime.GC()
	start = time.Now()
	pr, err := core.Transient(ckt, opt)
	if err != nil {
		return nil, fmt.Errorf("partition bench (partitioned): %w", err)
	}
	partMs := float64(time.Since(start).Nanoseconds()) / 1e6

	// Accuracy cross-check on the pulsed head, the quiet tail and a
	// mid-pipeline stage.
	worst := 0.0
	for _, sig := range []string{"v(n0)", "v(n512)", "v(n1023)"} {
		a, b := mono.Waves.Get(sig), pr.Waves.Get(sig)
		if a == nil || b == nil {
			return nil, fmt.Errorf("partition bench: signal %s missing", sig)
		}
		va, vb, err := wave.CompareOn(a, b, 400)
		if err != nil {
			return nil, err
		}
		for i := range va {
			if d := math.Abs(va[i] - vb[i]); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.03 {
		return nil, fmt.Errorf("partition bench: engines deviate by %.4g V", worst)
	}

	total := pr.Stats.BlockSolves + pr.Stats.BlockSkips
	pb := &PartitionBench{
		Stages:        stages,
		Nodes:         ckt.NumNodes() - 1,
		Blocks:        pr.Stats.Blocks,
		Tears:         pr.Stats.Tears,
		MonolithicMs:  monoMs,
		PartitionedMs: partMs,
		Speedup:       monoMs / partMs,
		BlockSolves:   pr.Stats.BlockSolves,
		BlockSkips:    pr.Stats.BlockSkips,
		SkipFraction:  float64(pr.Stats.BlockSkips) / float64(total),
		// The Finite guard keeps any degenerate measure out of the JSON
		// record (encoding/json rejects non-finite floats).
		MaxAbsDevV: wave.Finite(worst, -1),
	}
	fmt.Printf("partition bench: %d stages (%d nodes) -> %d blocks/%d tears; mono %.0f ms, part %.0f ms (%.1fx), %.0f%% block-steps dormant, max dev %.3g V\n",
		pb.Stages, pb.Nodes, pb.Blocks, pb.Tears, pb.MonolithicMs, pb.PartitionedMs, pb.Speedup, 100*pb.SkipFraction, pb.MaxAbsDevV)
	if pb.Speedup < 2 {
		return nil, fmt.Errorf("partition bench: speedup %.2fx below the 2x acceptance floor", pb.Speedup)
	}
	return pb, nil
}

// hierCompileFloor is the smallest hierarchical-over-flat compile
// speedup runHierCompileBench accepts on the 4096-stage pipeline.
const hierCompileFloor = 10

// runHierCompileBench times hierarchical master-template compilation
// against flatten-and-compile on the 4096-stage subcircuit pipeline
// (hiertest.PipelineDeck) and cross-checks the transient waveforms
// bitwise. Each path is timed best-of-3 from a collected heap, and a
// speedup below hierCompileFloor fails the bench.
func runHierCompileBench() (*HierCompileBench, error) {
	const stages, rows, cols = 4096, 10, 10
	deck, err := netparse.Parse(hiertest.PipelineDeck(stages, rows, cols))
	if err != nil {
		return nil, fmt.Errorf("hier bench: parse: %w", err)
	}
	ckt := deck.Circuit
	opt := core.Options{
		TStop: 2e-9, HInit: 0.1e-9,
		Partition: &part.Options{},
	}

	// Hierarchical path first: once the flat compile exists, its
	// thousands of live solvers would bill their GC scan time to hier's
	// clock.
	var hrep *hier.Report
	hierCT, hierMs, err := bestCompile(func() (*core.CompiledTransient, error) {
		ct, rep, err := hier.CompileTransient(ckt, opt)
		hrep = rep
		return ct, err
	})
	if err != nil {
		return nil, fmt.Errorf("hier bench (hierarchical): %w", err)
	}
	flatCT, flatMs, err := bestCompile(func() (*core.CompiledTransient, error) {
		return core.CompileTransient(ckt, opt)
	})
	if err != nil {
		return nil, fmt.Errorf("hier bench (flatten): %w", err)
	}

	flatRes, err := flatCT.Run()
	if err != nil {
		return nil, fmt.Errorf("hier bench (flat run): %w", err)
	}
	hierRes, err := hierCT.Run()
	if err != nil {
		return nil, fmt.Errorf("hier bench (hier run): %w", err)
	}
	if err := identicalWaves(flatRes.Waves, hierRes.Waves); err != nil {
		return nil, fmt.Errorf("hier bench: hier vs flat waveforms: %w", err)
	}

	hb := &HierCompileBench{
		Stages:          stages,
		Nodes:           ckt.NumNodes() - 1,
		Blocks:          hrep.Blocks,
		Groups:          hrep.Groups,
		MaterializedDim: hrep.MaterializedDim,
		TotalDim:        hrep.TotalDim,
		SharingFactor:   hrep.SharingFactor(),
		FlattenMs:       flatMs,
		HierMs:          hierMs,
		Speedup:         flatMs / hierMs,
		BitIdentical:    true,
	}
	fmt.Printf("hier bench: %d stages (%d nodes) -> %d blocks/%d groups; flatten %.0f ms, hier %.0f ms (%.1fx), sharing %.0fx, bit-identical\n",
		hb.Stages, hb.Nodes, hb.Blocks, hb.Groups, hb.FlattenMs, hb.HierMs, hb.Speedup, hb.SharingFactor)
	if hb.Speedup < hierCompileFloor {
		return nil, fmt.Errorf("hier bench: compile speedup %.2fx below the %dx floor", hb.Speedup, hierCompileFloor)
	}
	return hb, nil
}

// bestCompile runs compile three times and returns the last result
// with the fastest attempt's milliseconds. Each attempt starts from a
// collected heap with the previous attempt's result already dropped, so
// no attempt pays GC scan time for another's live solvers.
func bestCompile(compile func() (*core.CompiledTransient, error)) (*core.CompiledTransient, float64, error) {
	var ct *core.CompiledTransient
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		ct = nil
		runtime.GC()
		start := time.Now()
		c, err := compile()
		if err != nil {
			return nil, 0, err
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/1e6)
		ct = c
	}
	return ct, best, nil
}

// identicalWaves demands bitwise-equal waveform sets: same signals, same
// timepoints, same values. Any drift between the hierarchical and the
// flat compile is a bug, not a tolerance question.
func identicalWaves(a, b *wave.Set) error {
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		return fmt.Errorf("signal counts differ: %d vs %d", len(an), len(bn))
	}
	for _, name := range an {
		sa, sb := a.Get(name), b.Get(name)
		if sb == nil {
			return fmt.Errorf("signal %s missing from one run", name)
		}
		if len(sa.T) != len(sb.T) {
			return fmt.Errorf("signal %s: %d vs %d samples", name, len(sa.T), len(sb.T))
		}
		for i := range sa.T {
			if sa.T[i] != sb.T[i] || sa.V[i] != sb.V[i] {
				return fmt.Errorf("signal %s diverges at sample %d: (%g, %g) vs (%g, %g)",
					name, i, sa.T[i], sa.V[i], sb.T[i], sb.V[i])
			}
		}
	}
	return nil
}

func entry(backend string, n int, r testing.BenchmarkResult) SolverBenchEntry {
	return SolverBenchEntry{
		Backend:     backend,
		N:           n,
		NsPerStep:   float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}
