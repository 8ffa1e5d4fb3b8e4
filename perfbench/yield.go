package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"nanosim"
)

// yieldSetups is how many circuit-and-options builds run before the
// first batch. One more runs after every batch: a build takes a few
// microseconds, and samples spread over the whole run average out the
// host's speed drifting over seconds.
const yieldSetups = 101

// runYield is the library workload: one caller runs nanosim.Vary
// in-process, a closed loop of yield batches.
func runYield(cfg config) (*report, error) {
	in := inverterInput(cfg.seed)
	var p phase
	var ckt *nanosim.Circuit
	var opt nanosim.VaryOptions
	setUp := func() (err error) {
		t0 := time.Now()
		ckt, opt, err = buildInverter(in)
		p.setup = append(p.setup, time.Since(t0).Seconds())
		return err
	}
	for i := 0; i < yieldSetups; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		return traceYield(cfg, ckt, opt)
	}

	rep := newReport()
	ref := newRefs()
	cpu0, _, err := selfUsage()
	if err != nil {
		return nil, err
	}
	var last *nanosim.VaryResult
	end := deadline(cfg)
	for time.Now().Before(end) {
		t0 := time.Now()
		res, err := nanosim.Vary(ckt, opt)
		d := time.Since(t0)
		p.elapsed += d
		p.lat = append(p.lat, ms(d))
		if err = checkYield(res, err, opt, ref); err == nil {
			last = res
		}
		rep.ops.add(err)
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	cpu1, rssMB, err := selfUsage()
	if err != nil {
		return nil, err
	}
	p.cpu, p.rssMB = cpu1-cpu0, rssMB
	rep.setEndToEnd(p)
	if last != nil {
		rep.note("yield %.3f (%d of %d trials pass)", last.Yield, last.Passed, last.Trials)
	}
	return rep, nil
}

// buildInverter builds the mc-yield circuit and batch options through
// the root API, parsing the input's SPICE values on the way.
func buildInverter(in inverter) (*nanosim.Circuit, nanosim.VaryOptions, error) {
	var opt nanosim.VaryOptions
	var v [8]float64
	for i, s := range [...]string{in.vdd, in.vin, in.cl, in.cin, in.kp, in.vto, in.tstop, in.tstep} {
		x, err := nanosim.Parse(s)
		if err != nil {
			return nil, opt, fmt.Errorf("inverter value %q: %w", s, err)
		}
		v[i] = x
	}
	vdd, vin, cl, cin, kp, vto, tstop, tstep := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
	fet, err := nanosim.NewMOSFET(nanosim.NMOS, kp, 1, 1, vto)
	if err != nil {
		return nil, opt, err
	}
	ckt := nanosim.NewCircuit("perfbench fet-rtd inverter")
	_, e1 := ckt.AddVSource("VDD", "vdd", "0", nanosim.DC(vdd))
	_, e2 := ckt.AddVSource("VIN", "in", "0", nanosim.DC(vin))
	_, e3 := ckt.AddDevice("NL", "vdd", "out", nanosim.NewRTD().WithArea(in.loadArea))
	_, e4 := ckt.AddDevice("ND", "out", "0", nanosim.NewRTD())
	_, e5 := ckt.AddFET("M1", "out", "in", "0", fet)
	_, e6 := ckt.AddCapacitor("CL", "out", "0", cl)
	_, e7 := ckt.AddCapacitor("CIN", "in", "0", cin)
	if err := errors.Join(e1, e2, e3, e4, e5, e6, e7); err != nil {
		return nil, opt, err
	}
	opt = nanosim.VaryOptions{
		Trials:  in.trials,
		Seed:    in.varySeed,
		Workers: threads,
		Specs: []nanosim.VarySpec{
			{Elem: "N*", Param: "A", Sigma: in.areaDev, Rel: true},
			{Elem: "M1", Param: "VTO", Sigma: in.vtoDev, Rel: true},
		},
		Job: nanosim.VaryJob{Analysis: "tran", Tran: nanosim.TranOptions{
			TStop: tstop, HInit: tstep, RecordCurrents: true}},
		Signals: []string{"v(out)"},
		Limits:  []nanosim.VaryLimit{{Signal: "v(out)", Stat: "final", Lo: 0, Hi: in.hi}},
	}
	return ckt, opt, nil
}

// checkYield checks one batch: it ran, every requested trial ran and
// none failed, the yield is strictly inside (0, 1), and every number
// equals the first batch's.
func checkYield(res *nanosim.VaryResult, err error, opt nanosim.VaryOptions, ref *refs) error {
	switch {
	case err != nil:
		return err
	case res.Trials != opt.Trials || res.Failed != 0:
		return fmt.Errorf("batch ran %d trials with %d failed, want %d with none failed", res.Trials, res.Failed, opt.Trials)
	case res.Passed <= 0 || res.Passed >= res.Trials:
		return fmt.Errorf("yield %d/%d is not strictly between 0 and 1", res.Passed, res.Trials)
	}
	return ref.match("batch", varyDigest(res))
}

// varyDigest serializes every number of a batch result: the yield
// counts and each signal's per-trial measures and envelopes.
func varyDigest(res *nanosim.VaryResult) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %d %d\n", res.Trials, res.Failed, res.Passed)
	for _, s := range res.Signals {
		b.WriteString(s.Name)
		for _, xs := range [][]float64{s.Final, s.Min, s.Max} {
			_ = binary.Write(&b, binary.LittleEndian, xs) // writes to a bytes.Buffer cannot fail
		}
		for _, env := range []*nanosim.Series{s.Mean, s.Std, s.QLo, s.QHi} {
			if env != nil {
				_ = binary.Write(&b, binary.LittleEndian, env.V)
			}
		}
	}
	return b.Bytes()
}

// traceYield times nanosim.Vary as one span per op and, separately,
// nanosim.Transient on the nominal circuit: one trial's engine work.
// The worker time per trial that the engine does not account for is
// overhead: clone, perturb, recording and aggregation. Traced ops
// alternate with untraced ones, whose median is printed beside the
// traced op total.
func traceYield(cfg config, ckt *nanosim.Circuit, opt nanosim.VaryOptions) (*report, error) {
	rep := newReport()
	ref := newRefs()
	rec := newRecorder()
	var untraced, allocMB, gcs []float64
	var batch *nanosim.VaryResult
	var nominal *nanosim.TranResult
	end := deadline(cfg)
	for op := 0; op < 2 || time.Now().Before(end); op++ {
		if op%2 == 1 {
			t0 := time.Now()
			res, err := nanosim.Vary(ckt, opt)
			untraced = append(untraced, ms(time.Since(t0)))
			rep.ops.add(checkYield(res, err, opt, ref))
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		root := rec.begin("op", op, -1)
		var res *nanosim.VaryResult
		err := rec.timed("vary.batch", op, root, func() (err error) {
			res, err = nanosim.Vary(ckt, opt)
			return err
		})
		rec.end(root)
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		if err = checkYield(res, err, opt, ref); err != nil {
			rep.ops.add(err)
			continue
		}
		var tr *nanosim.TranResult
		err = rec.timed("core.transient", op, -1, func() (err error) {
			tr, err = nanosim.Transient(ckt, opt.Job.Tran)
			return err
		})
		if err == nil {
			err = sameSeries(tr.Waves.Get("v(out)"), res.Nominal.Get("v(out)"))
		}
		rep.ops.add(err)
		batch, nominal = res, tr
	}
	if batch == nil {
		return nil, fmt.Errorf("no traced op succeeded: %v", rep.ops.first)
	}
	if err := rec.dump(filepath.Join(cfg.work, "trace-mc-yield.ndjson")); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	layers := fold(spans)
	opMs, unattr := opCoverage(spans, "op")
	batchMs := median(layers["vary.batch"].durs)
	engine := median(layers["core.transient"].durs)
	trials := float64(batch.Trials)
	rep.set("trace.op_ms", median(opMs), "ms")
	rep.set("trace.unattributed_frac", median(unattr), "frac")
	rep.set("vary.batch_ms", batchMs, "ms")
	rep.set("vary.engine_ms_per_trial", engine, "ms")
	rep.set("vary.overhead_ms_per_trial", batchMs*threads/trials-engine, "ms")
	rep.note("traced op total %.2f ms beside the untraced op median %.2f ms; %d trials on %d workers at %.3f ms engine each",
		median(opMs), median(untraced), batch.Trials, threads, engine)
	rep.set("vary.trials", trials, "count")
	rep.set("vary.failed_trials", float64(batch.Failed), "count")
	rep.set("core.steps_per_trial", float64(nominal.Stats.Steps), "count")
	rep.set("core.device_evals_per_trial", float64(nominal.Stats.DeviceEvals), "count")
	rep.set("linsolve.full_factors_per_trial", float64(batch.Solve.FullFactor)/trials, "count")
	rep.set("linsolve.numeric_refactors_per_trial", float64(batch.Solve.NumericRefactor)/trials, "count")
	rep.set("runtime.alloc_mb_per_op", median(allocMB), "MiB")
	rep.set("runtime.gc_per_op", median(gcs), "count")
	return rep, nil
}

// sameSeries checks that the standalone transient reproduced the
// batch's nominal run sample for sample.
func sameSeries(a, b *nanosim.Series) error {
	if a == nil || b == nil {
		return errors.New("nominal v(out) missing")
	}
	if !slices.Equal(a.T, b.T) || !slices.Equal(a.V, b.V) {
		return errors.New("nanosim.Transient differs from the batch's nominal run")
	}
	return nil
}

// selfUsage is this process's user+sys CPU time so far and its
// resident-set high-water mark in MiB.
func selfUsage() (cpu time.Duration, rssMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024, nil
}
