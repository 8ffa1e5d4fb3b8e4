package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nanosim"
	"nanosim/internal/core"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
)

// pipeSetups is how many start-ups on the minimal deck run before the
// first op. One more runs after every op, so the set-up samples span the
// whole run rather than one moment of the host's speed.
const pipeSetups = 5

// runPipeline is the CLI workload: one nanosim process at a time runs
// the generated .subckt pipeline deck, a closed loop of one caller.
func runPipeline(cfg config) (*report, error) {
	deck := pipelineDeck(cfg.seed)
	path, err := writeInput(cfg, "pipeline.sp", deck)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return tracePipeline(cfg, path, deck)
	}
	setupPath, err := writeInput(cfg, "setup.sp", setupDeck)
	if err != nil {
		return nil, err
	}
	var p phase
	startUp := func() error {
		run, err := execCLI(cfg, setupPath)
		if err != nil {
			return fmt.Errorf("start-up deck: %w", err)
		}
		p.setup = append(p.setup, run.wall.Seconds())
		return nil
	}
	for i := 0; i < pipeSetups; i++ {
		if err := startUp(); err != nil {
			return nil, err
		}
	}

	rep := newReport()
	ref := newRefs()
	var rss []float64
	var elapsed time.Duration
	end := deadline(cfg)
	for time.Now().Before(end) {
		run, err := execCLI(cfg, "-j", strconv.Itoa(threads), path)
		elapsed += run.wall
		p.lat = append(p.lat, ms(run.wall))
		p.cpu += run.cpu
		rss = append(rss, run.rssMB)
		rep.ops.add(checkCLI(run, err, ref))
		if err := startUp(); err != nil {
			return nil, err
		}
	}
	// Throughput counts only the ops' own time, not the start-ups
	// measured between them.
	p.elapsed = elapsed
	p.rssMB = median(rss)
	rep.setEndToEnd(p)
	return rep, nil
}

// cliRun is one finished nanosim process.
type cliRun struct {
	stdout    []byte
	wall, cpu time.Duration
	rssMB     float64 // the process's peak resident set
}

// execCLI runs the nanosim binary to completion.
func execCLI(cfg config, args ...string) (cliRun, error) {
	cmd := exec.Command(filepath.Join(cfg.bin, "nanosim"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	run := cliRun{stdout: stdout.Bytes(), wall: time.Since(t0)}
	if ps := cmd.ProcessState; ps != nil {
		run.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			run.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		return run, fmt.Errorf("nanosim %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return run, nil
}

// tranStatsRE matches the CLI's transient work summary.
var tranStatsRE = regexp.MustCompile(`steps=(\d+) rejected=(\d+) solves=(\d+)`)

// checkCLI checks one pipeline op: a clean exit, a transient summary in
// the output, and output identical to the first op's.
func checkCLI(run cliRun, err error, ref *refs) error {
	if err != nil {
		return err
	}
	if !tranStatsRE.Match(run.stdout) {
		return errors.New("nanosim output has no transient summary")
	}
	return ref.match("stdout", run.stdout)
}

// pipeOp is what one traced in-process pipeline op produced.
type pipeOp struct {
	res   *nanosim.TranResult
	solve linsolve.SolveStats
	waves *nanosim.WaveSet
	print []string
}

// tracePipeline alternates the CLI op with the same work done
// in-process through each layer's entry point, netparse.Parse ->
// core.NewCompiledTransient -> WarmBlocks -> Run, with the options the
// CLI uses. The CLI op's median minus the traced op total is the time
// the CLI spends outside those layers: process start and output.
func tracePipeline(cfg config, path, deck string) (*report, error) {
	rep := newReport()
	ref := newRefs()
	rec := newRecorder()
	var cliMs, allocMB, gcs []float64
	var stats nanosim.TranStats
	var solve linsolve.SolveStats
	passed := 0
	end := deadline(cfg)
	for op := 0; time.Now().Before(end); op++ {
		run, err := execCLI(cfg, "-j", strconv.Itoa(threads), path)
		cliMs = append(cliMs, ms(run.wall))
		if err := checkCLI(run, err, ref); err != nil {
			rep.ops.add(err)
			continue
		}
		// Start from a collected heap, as the CLI's fresh process does.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		got, err := inProcessPipeline(rec, op, deck)
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		if err == nil {
			err = sameAsCLI(got, run.stdout)
		}
		rep.ops.add(err)
		if err == nil {
			stats, solve = got.res.Stats, got.solve
			passed++
		}
	}
	if passed == 0 {
		return nil, fmt.Errorf("no traced op succeeded: %v", rep.ops.first)
	}
	if err := rec.dump(filepath.Join(cfg.work, "trace-subckt-pipeline.ndjson")); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	layers := fold(spans)
	opMs, unattr := opCoverage(spans, "op")
	pipeLayers := []string{"netparse.parse", "core.construct", "core.warm", "core.run"}
	for _, l := range pipeLayers {
		rep.set(l+"_ms", median(layers[l].durs), "ms")
	}
	opTotal := median(opMs)
	rep.set("trace.op_ms", opTotal, "ms")
	rep.set("trace.unattributed_frac", median(unattr), "frac")
	rep.set("cli.unattributed_ms", median(cliMs)-opTotal, "ms")
	rep.note("traced op total %.2f ms beside the CLI op's median %.2f ms over %d ops", opTotal, median(cliMs), len(cliMs))
	for _, l := range pipeLayers {
		rep.note("%-16s self %.1f%% of the traced op", l, 100*layers[l].self/layers["op"].total)
	}

	st := stats
	rep.set("core.steps", float64(st.Steps), "count")
	rep.set("core.rejected", float64(st.Rejected), "count")
	rep.set("core.device_evals", float64(st.DeviceEvals), "count")
	rep.set("core.block_solves", float64(st.BlockSolves), "count")
	rep.set("core.dormant_frac", float64(st.BlockSkips)/float64(st.BlockSolves+st.BlockSkips), "frac")
	rep.set("part.blocks", float64(st.Blocks), "count")
	rep.set("part.tears", float64(st.Tears), "count")
	rep.set("linsolve.full_factors", float64(solve.FullFactor), "count")
	rep.set("linsolve.numeric_refactors", float64(solve.NumericRefactor), "count")
	rep.set("linsolve.pattern_rebuilds", float64(solve.PatternRebuild), "count")
	rep.set("runtime.alloc_mb_per_op", median(allocMB), "MiB")
	rep.set("runtime.gc_per_op", median(gcs), "count")
	return rep, nil
}

// inProcessPipeline runs one traced in-process op.
func inProcessPipeline(rec *recorder, op int, src string) (pipeOp, error) {
	var got pipeOp
	root := rec.begin("op", op, -1)
	defer rec.end(root)
	var deck *netparse.Deck
	err := rec.timed("netparse.parse", op, root, func() (err error) {
		deck, err = netparse.Parse(src)
		return err
	})
	if err != nil {
		return got, err
	}
	opt, err := cliTranOptions(deck)
	if err != nil {
		return got, err
	}
	var c *core.CompiledTransient
	if err := rec.timed("core.construct", op, root, func() (err error) {
		c, err = core.NewCompiledTransient(deck.Circuit, opt)
		return err
	}); err != nil {
		return got, err
	}
	if err := rec.timed("core.warm", op, root, func() error { return c.WarmBlocks(nil) }); err != nil {
		return got, err
	}
	if err := rec.timed("core.run", op, root, func() (err error) {
		got.res, err = c.Run()
		return err
	}); err != nil {
		return got, err
	}
	for bi := 0; bi < c.NumBlocks(); bi++ {
		if s, ok := c.BlockSolver(bi).(linsolve.Refactorable); ok {
			got.solve.Accumulate(s.SolveStats())
		}
	}
	got.waves, got.print = got.res.Waves, deck.Prints
	return got, nil
}

// cliTranOptions are the transient options nanosim uses for the deck's
// .tran card, .options partition card and -j flag.
func cliTranOptions(deck *netparse.Deck) (nanosim.TranOptions, error) {
	for _, a := range deck.Analyses {
		if a.Kind != "tran" {
			continue
		}
		opt := nanosim.TranOptions{TStop: a.TStop, HInit: a.TStep, RecordCurrents: true, Workers: threads}
		if o := deck.Options; o != nil && o.Partition {
			opt.Partition = &nanosim.PartitionOptions{GCouple: o.GCouple, NoDormancy: o.NoDormancy}
		}
		return opt, nil
	}
	return nanosim.TranOptions{}, errors.New("deck has no .tran card")
}

// sameAsCLI checks that the in-process op computed what the CLI
// printed: the same step, rejection and solve counts, the same
// partition, and the same plot of the printed signals.
func sameAsCLI(got pipeOp, stdout []byte) error {
	st := got.res.Stats
	m := tranStatsRE.FindSubmatch(stdout)
	want := fmt.Sprintf("steps=%d rejected=%d solves=%d", st.Steps, st.Rejected, st.Solves)
	if m == nil || string(m[0]) != want {
		return fmt.Errorf("in-process run differs from the CLI: %s, CLI printed %q", want, m)
	}
	part := fmt.Sprintf("partition: %d blocks, %d tears, %d block-solves, %d dormant block-steps skipped",
		st.Blocks, st.Tears, st.BlockSolves, st.BlockSkips)
	if !bytes.Contains(stdout, []byte(part)) {
		return fmt.Errorf("in-process partition differs from the CLI's: %s", part)
	}
	var plot bytes.Buffer
	if err := got.waves.Plot(&plot, 78, 16, got.print...); err != nil {
		return err
	}
	if !bytes.Contains(stdout, plot.Bytes()) {
		return errors.New("in-process waveforms plot differently from the CLI's")
	}
	return nil
}
