package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanosim/internal/circuit"
	"nanosim/internal/flop"
	"nanosim/internal/part"
)

// requireBitIdentical asserts two transient results are bitwise equal:
// final state, every raw waveform sample, and the work statistics.
func requireBitIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if err := diffResults(a, b); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// diffResults reports the first difference between two transient
// results: final state, then every series' raw samples (names, order,
// lengths, each T and V bit for bit), then the work statistics.
func diffResults(a, b *Result) error {
	if len(a.X) != len(b.X) {
		return fmt.Errorf("state dim differs (%d vs %d)", len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return fmt.Errorf("state row %d differs: %g vs %g", i, a.X[i], b.X[i])
		}
	}
	an, bn := a.Waves.Names(), b.Waves.Names()
	if len(an) != len(bn) {
		return fmt.Errorf("signal count differs (%d vs %d)", len(an), len(bn))
	}
	for k, name := range an {
		if bn[k] != name {
			return fmt.Errorf("signal %d is %q vs %q", k, name, bn[k])
		}
		wa, wb := a.Waves.Get(name), b.Waves.Get(name)
		if len(wa.T) != len(wb.T) || len(wa.V) != len(wb.V) {
			return fmt.Errorf("signal %q has %d vs %d samples", name, len(wa.T), len(wb.T))
		}
		for i := range wa.T {
			if math.Float64bits(wa.T[i]) != math.Float64bits(wb.T[i]) ||
				math.Float64bits(wa.V[i]) != math.Float64bits(wb.V[i]) {
				return fmt.Errorf("signal %q sample %d differs: (%g, %g) vs (%g, %g)",
					name, i, wa.T[i], wa.V[i], wb.T[i], wb.V[i])
			}
		}
	}
	if a.Stats != b.Stats {
		return fmt.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	return nil
}

// TestParallelPartitionedDeterministic is the partitioned-transient leg
// of the multi-core determinism battery: on three structurally different
// golden decks, the torn-block engine must produce bit-identical
// results at every worker count and across repeat runs — the pool may
// only change which goroutine computes a block, never the arithmetic.
func TestParallelPartitionedDeterministic(t *testing.T) {
	decks := []struct {
		name string
		ckt  func() *circuit.Circuit
		opt  Options
		popt part.Options
	}{
		{"rtd-pipeline", func() *circuit.Circuit { return pipeline(12, 2) },
			Options{TStop: 25e-9, HInit: 0.1e-9}, part.Options{}},
		{"fet-pair", fetInverterPair,
			Options{TStop: 40e-9, HInit: 0.1e-9, Correctors: 1}, part.Options{}},
		{"pipeline-nodorm", func() *circuit.Circuit { return pipeline(10, 1) },
			Options{TStop: 20e-9, HInit: 0.1e-9, Trapezoidal: true}, part.Options{NoDormancy: true}},
	}
	counts := []int{1, 2, 8, runtime.NumCPU()}
	for _, d := range decks {
		t.Run(d.name, func(t *testing.T) {
			var ref *Result
			for _, w := range counts {
				opt := d.opt
				opt.Workers = w
				popt := d.popt
				opt.Partition = &popt
				opt.FC = new(flop.Counter)
				for rep := 0; rep < 2; rep++ {
					res, err := Transient(d.ckt(), opt)
					if err != nil {
						t.Fatalf("workers=%d rep=%d: %v", w, rep, err)
					}
					if res.Stats.Blocks < 2 {
						t.Fatalf("deck did not partition (blocks=%d)", res.Stats.Blocks)
					}
					if ref == nil {
						ref = res
						continue
					}
					requireBitIdentical(t, d.name, ref, res)
				}
			}
		})
	}
}

// TestParallelPartitionCancelDeterministic exercises the pool teardown
// paths under -race: transients canceled mid-step while the workers are
// live, many engines stepping concurrently, and rapid pool
// create/close cycles. Uncanceled runs must stay bit-identical to a
// serial reference.
func TestParallelPartitionCancelDeterministic(t *testing.T) {
	base := Options{TStop: 25e-9, HInit: 0.1e-9, Partition: &part.Options{}}
	serial := base
	serial.Workers = 1
	ref, err := Transient(pipeline(12, 2), serial)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var canceled atomic.Int64
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := base
			popt := *base.Partition
			opt.Partition = &popt
			opt.Workers = 2 + g%3
			if g%2 == 1 {
				// Cancel mid-run: the engine must unwind while pool
				// workers are parked between phases, not leak them.
				ctx, cancel := context.WithCancel(context.Background())
				opt.Ctx = ctx
				timer := time.AfterFunc(time.Duration(g)*200*time.Microsecond, cancel)
				defer timer.Stop()
				defer cancel()
				res, err := Transient(pipeline(12, 2), opt)
				if err != nil {
					canceled.Add(1)
					return
				}
				requireBitIdenticalErr(&errs[g], ref, res)
				return
			}
			res, err := Transient(pipeline(12, 2), opt)
			if err != nil {
				errs[g] = err
				return
			}
			requireBitIdenticalErr(&errs[g], ref, res)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// requireBitIdenticalErr is the goroutine-safe variant: records a
// divergence instead of failing the test from off the main goroutine.
func requireBitIdenticalErr(dst *error, a, b *Result) {
	*dst = diffResults(a, b)
}

// TestParallelStepZeroAlloc pins the per-step cost of the pool
// machinery and of the serial awake-set bookkeeping between phases:
// dispatching a phase over a worker pool must not allocate — the token
// handshake, cursor, and method-value phases are all steady-state
// storage — and neither may the wake checks, the eq (10)-(12) scans, the
// accepted-row copies or the row-subset recording of a step.
func TestParallelStepZeroAlloc(t *testing.T) {
	pool := newBlockPool(4)
	defer pool.close()
	list := make([]int, 64)
	for i := range list {
		list[i] = i
	}
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	pool.run(list, fn) // warm
	allocs := testing.AllocsPerRun(100, func() {
		pool.run(list, fn)
	})
	if allocs != 0 {
		t.Errorf("pool.run allocates %.1f times per dispatch, want 0", allocs)
	}

	// Stop the run mid-transient (MaxSteps), where some blocks sleep: the
	// final step of a finished run lands on TStop, a breakpoint of every
	// block, and wakes them all.
	c, err := NewCompiledTransient(pipeline(12, 2), Options{
		TStop: 25e-9, HInit: 0.1e-9, MaxSteps: 200, Partition: &part.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Fatal("run finished inside MaxSteps; the check needs it stopped mid-transient")
	}
	e := c.pe
	h, tNow := e.hPrev, e.phT+e.phH
	allocs = testing.AllocsPerRun(100, func() {
		e.wake(tNow, h)
		e.localError(h)
		e.stepBound(h)
		e.acceptRows()
		tNow += h
		e.rec.SampleRows(tNow, e.x, e.awakeRows)
	})
	if allocs != 0 {
		t.Errorf("awake-set step bookkeeping allocates %.1f times per step, want 0", allocs)
	}
	if len(e.activeIdx) == 0 || len(e.activeIdx) == len(e.blocks) {
		t.Errorf("%d of %d blocks awake: the check needs a partly dormant step", len(e.activeIdx), len(e.blocks))
	}
}
