package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
	"nanosim/internal/wave"
)

// pipeline builds a miniature of exp.RTDPipeline: n RTD stages off a
// shared DC rail, the first `pulsed` driven by their own pulse sources,
// adjacent stages weakly coupled.
func pipeline(n, pulsed int) *circuit.Circuit {
	c := circuit.New("pipeline")
	c.AddVSource("VDD", "vdd", "0", device.DC(0.55))
	names := make([]string, n)
	for i := 0; i < n; i++ {
		nd := "s" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		names[i] = nd
		rail := "vdd"
		if i < pulsed {
			rail = "p" + nd
			c.AddVSource("VP"+nd, rail, "0", device.Pulse{
				V1: 0.1, V2: 0.9, Delay: 2e-9, Rise: 0.5e-9, Fall: 0.5e-9,
				Width: 3e-9, Period: 8e-9,
			})
		}
		c.AddResistor("R"+nd, rail, nd, 300+float64(i%7)*20)
		c.AddDevice("N"+nd, nd, "0", device.NewRTD())
		c.AddCapacitor("C"+nd, nd, "0", 10e-15)
		if i > 0 {
			c.AddResistor("RC"+nd, names[i-1], nd, 250e3)
		}
	}
	return c
}

// fetInverterPair is a two-stage FET load-resistor chain whose second
// gate is remote under partitioning.
func fetInverterPair() *circuit.Circuit {
	c := circuit.New("fet-pair")
	c.AddVSource("VDD", "vdd", "0", device.DC(5))
	c.AddVSource("VIN", "in", "0", device.Pulse{
		V1: 0, V2: 3, Delay: 5e-9, Rise: 1e-9, Fall: 1e-9, Width: 20e-9,
	})
	c.AddResistor("RIN", "in", "g1", 100)
	c.AddCapacitor("CG", "g1", "0", 5e-15)
	c.AddResistor("R1", "vdd", "o1", 2e3)
	c.AddFET("M1", "o1", "g1", "0", device.NewNMOS())
	c.AddCapacitor("C1", "o1", "0", 20e-15)
	c.AddResistor("R2", "vdd", "o2", 2e3)
	c.AddFET("M2", "o2", "o1", "0", device.NewNMOS())
	c.AddCapacitor("C2", "o2", "0", 20e-15)
	return c
}

// comparePartitioned runs ckt monolithically and partitioned and
// returns the worst per-node deviation (absolute volts) plus both
// results.
func comparePartitioned(t *testing.T, ckt *circuit.Circuit, opt Options, popt part.Options) (float64, *Result, *Result) {
	t.Helper()
	mono, err := Transient(ckt, opt)
	if err != nil {
		t.Fatalf("monolithic: %v", err)
	}
	popt2 := popt
	opt.Partition = &popt2
	pr, err := Transient(ckt, opt)
	if err != nil {
		t.Fatalf("partitioned: %v", err)
	}
	worst := 0.0
	for _, name := range mono.Waves.Names() {
		a := mono.Waves.Get(name)
		b := pr.Waves.Get(name)
		if b == nil {
			t.Fatalf("partitioned run lost signal %q", name)
		}
		if a.Len() < 2 || b.Len() < 2 {
			continue
		}
		va, vb, err := wave.CompareOn(a, b, 400)
		if err != nil {
			t.Fatalf("compare %q: %v", name, err)
		}
		for i := range va {
			if d := math.Abs(va[i] - vb[i]); d > worst {
				worst = d
			}
		}
	}
	return worst, mono, pr
}

func TestPartitionedMatchesMonolithicPipeline(t *testing.T) {
	ckt := pipeline(12, 2)
	opt := Options{TStop: 30e-9, HInit: 0.1e-9}
	worst, _, pr := comparePartitioned(t, ckt, opt, part.Options{})
	// Eps defaults to 0.01 on a ~0.9 V scale: accept a few Eps·vScale.
	if worst > 0.03 {
		t.Fatalf("partitioned deviates %.4g V from monolithic (tol 0.03)", worst)
	}
	if pr.Stats.Blocks < 12 {
		t.Fatalf("expected >= 12 blocks, got %d", pr.Stats.Blocks)
	}
	if pr.Stats.BlockSkips == 0 {
		t.Fatalf("dormancy never engaged: 0 block-steps skipped")
	}
}

func TestPartitionedMatchesMonolithicFET(t *testing.T) {
	ckt := fetInverterPair()
	opt := Options{TStop: 40e-9, HInit: 0.1e-9}
	worst, _, pr := comparePartitioned(t, ckt, opt, part.Options{})
	if worst > 0.15 { // 5 V scale: 3·Eps·vScale
		t.Fatalf("partitioned deviates %.4g V from monolithic (tol 0.15)", worst)
	}
	if pr.Stats.Blocks < 3 {
		t.Fatalf("expected a real partition, got %d blocks", pr.Stats.Blocks)
	}
}

func TestPartitionedNoDormancyMatches(t *testing.T) {
	ckt := pipeline(8, 1)
	opt := Options{TStop: 20e-9, HInit: 0.1e-9}
	worst, _, pr := comparePartitioned(t, ckt, opt, part.Options{NoDormancy: true})
	if worst > 0.03 {
		t.Fatalf("partitioned (no dormancy) deviates %.4g V (tol 0.03)", worst)
	}
	if pr.Stats.BlockSkips != 0 {
		t.Fatalf("NoDormancy must not skip blocks, got %d skips", pr.Stats.BlockSkips)
	}
}

func TestPartitionedCorrectorsRun(t *testing.T) {
	ckt := pipeline(8, 1)
	opt := Options{TStop: 20e-9, HInit: 0.1e-9, Correctors: 1}
	worst, _, pr := comparePartitioned(t, ckt, opt, part.Options{})
	if worst > 0.03 {
		t.Fatalf("partitioned with correctors deviates %.4g V (tol 0.03)", worst)
	}
	opt.Partition = &part.Options{}
	opt.Correctors = 0
	plain, err := Transient(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	// One corrector pass re-solves every active block: the corrected run
	// must perform strictly more block solves than the uncorrected one.
	if pr.Stats.BlockSolves <= plain.Stats.BlockSolves {
		t.Fatalf("Correctors=1 did %d block solves, plain run %d — corrector passes not running",
			pr.Stats.BlockSolves, plain.Stats.BlockSolves)
	}
}

func TestPartitionedQuiescentSkipsDominate(t *testing.T) {
	// A fully quiescent pipeline: after settling, every block sleeps.
	ckt := pipeline(16, 0)
	opt := Options{TStop: 50e-9, HInit: 0.1e-9, Partition: &part.Options{}}
	res, err := Transient(ckt, opt)
	if err != nil {
		t.Fatalf("partitioned: %v", err)
	}
	if res.Stats.BlockSkips <= res.Stats.BlockSolves {
		t.Fatalf("quiescent pipeline should be mostly dormant: %d solves vs %d skips",
			res.Stats.BlockSolves, res.Stats.BlockSkips)
	}
}

// determinismDeck is one partitioned transient of the determinism
// tests: a circuit builder plus its engine and partition options.
type determinismDeck struct {
	name string
	ckt  func() *circuit.Circuit
	opt  Options
	popt part.Options
}

// determinismDecks are three structurally different partitioned runs:
// an RTD pipeline, a FET pair with one corrector, and a trapezoidal
// pipeline with dormancy off.
func determinismDecks() []determinismDeck {
	return []determinismDeck{
		{"rtd-pipeline", func() *circuit.Circuit { return pipeline(12, 2) },
			Options{TStop: 25e-9, HInit: 0.1e-9}, part.Options{}},
		{"fet-pair", fetInverterPair,
			Options{TStop: 40e-9, HInit: 0.1e-9, Correctors: 1}, part.Options{}},
		{"pipeline-nodorm", func() *circuit.Circuit { return pipeline(10, 1) },
			Options{TStop: 20e-9, HInit: 0.1e-9, Trapezoidal: true}, part.Options{NoDormancy: true}},
	}
}

// run builds the deck's circuit and runs it partitioned with a fresh
// flop counter, failing if the circuit did not tear into blocks.
func (d determinismDeck) run() (*Result, error) {
	opt := d.opt
	popt := d.popt
	opt.Partition = &popt
	opt.FC = new(flop.Counter)
	res, err := Transient(d.ckt(), opt)
	if err != nil {
		return nil, err
	}
	if res.Stats.Blocks < 2 {
		return nil, fmt.Errorf("deck did not partition (blocks=%d)", res.Stats.Blocks)
	}
	return res, nil
}

// TestPartitionedDeterministic: on three structurally different decks
// the torn-block engine must give bit-identical results across repeat
// runs — every raw sample, the final state and the work statistics,
// flops included.
func TestPartitionedDeterministic(t *testing.T) {
	for _, d := range determinismDecks() {
		t.Run(d.name, func(t *testing.T) {
			var ref *Result
			for rep := 0; rep < 2; rep++ {
				res, err := d.run()
				if err != nil {
					t.Fatalf("rep=%d: %v", rep, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				requireBitIdentical(t, d.name, ref, res)
			}
		})
	}
}

// TestParallelPartitionedDeterministic runs each determinism deck on
// four goroutines at once, each with its own circuit and flop counter,
// as concurrent requests and sweep points do. The engine keeps no state
// outside its own run, so every result must equal a serial reference
// bit for bit, flops included; under -race this also checks that
// concurrent engines share nothing mutable.
func TestParallelPartitionedDeterministic(t *testing.T) {
	const callers = 4
	for _, d := range determinismDecks() {
		t.Run(d.name, func(t *testing.T) {
			ref, err := d.run()
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			results := make([]*Result, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for c := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[c], errs[c] = d.run()
				}()
			}
			wg.Wait()
			for c, res := range results {
				if errs[c] != nil {
					t.Fatalf("caller %d: %v", c, errs[c])
				}
				requireBitIdentical(t, fmt.Sprintf("%s caller %d", d.name, c), ref, res)
			}
		})
	}
}

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

// TestPartitionedMatchesTestdataDecks runs every testdata deck with a
// .tran card through both engines and requires Eps-scaled agreement —
// the acceptance contract of the partitioned driver on real netlists.
func TestPartitionedMatchesTestdataDecks(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata decks found: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		deck, err := netparse.Parse(string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		var tran *netparse.Analysis
		for i := range deck.Analyses {
			if deck.Analyses[i].Kind == "tran" {
				tran = &deck.Analyses[i]
				break
			}
		}
		if tran == nil {
			continue
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			opt := Options{TStop: tran.TStop, HInit: tran.TStep}
			worst, _, pr := comparePartitioned(t, deck.Circuit, opt, part.Options{})
			// vScale is the deck's source swing; accept 3·Eps·vScale.
			vScale := 0.0
			for _, name := range pr.Waves.Names() {
				_, lo, _, hi := pr.Waves.Get(name).MinMax()
				if a := math.Max(math.Abs(lo), math.Abs(hi)); a > vScale {
					vScale = a
				}
			}
			tol := 3 * 0.01 * vScale
			if worst > tol {
				t.Fatalf("%s: partitioned deviates %.4g V (tol %.4g)", path, worst, tol)
			}
			t.Logf("%s: blocks=%d tears=%d worst=%.3g", filepath.Base(path), pr.Stats.Blocks, pr.Stats.Tears, worst)
		})
	}
}

func TestPartitionSingleBlockFallsBack(t *testing.T) {
	// A strongly coupled divider partitions to one block; the result
	// must be the monolithic one exactly.
	ckt := circuit.New("divider")
	ckt.AddVSource("V1", "in", "0", device.DC(0.8))
	ckt.AddResistor("R1", "in", "d", 600)
	ckt.AddDevice("N1", "d", "0", device.NewRTD())
	ckt.AddCapacitor("CD", "d", "0", 10e-15)
	// Tie the divider node to the source node with a capacitor so the
	// stiff tear is suppressed and everything unions into one block.
	ckt.AddCapacitor("CB", "in", "d", 10e-15)
	opt := Options{TStop: 50e-9}
	mono, err := Transient(ckt, opt)
	if err != nil {
		t.Fatalf("monolithic: %v", err)
	}
	opt.Partition = &part.Options{}
	pr, err := Transient(ckt, opt)
	if err != nil {
		t.Fatalf("partitioned: %v", err)
	}
	if pr.Stats.Blocks != 0 {
		t.Fatalf("single-block partition should fall back to monolithic, got Blocks=%d", pr.Stats.Blocks)
	}
	for i := range mono.X {
		if mono.X[i] != pr.X[i] {
			t.Fatalf("fallback result differs at row %d", i)
		}
	}
}

// spanningDeck is a torn circuit whose devices cross block boundaries
// both ways the awake-set scans must handle: a weak RTD torn between
// two RTD stages, and a FET whose gate is owned by another block.
func spanningDeck() *circuit.Circuit {
	c := circuit.New("spanning")
	c.AddVSource("VDD", "vdd", "0", device.DC(0.55))
	c.AddVSource("VP", "p", "0", device.Pulse{
		V1: 0.1, V2: 0.9, Delay: 1e-9, Rise: 0.5e-9, Fall: 0.5e-9, Width: 3e-9, Period: 8e-9,
	})
	weak := device.NewRTD()
	weak.Area = 1e-3
	c.AddResistor("RA", "p", "a", 300)
	c.AddDevice("NA", "a", "0", device.NewRTD())
	c.AddCapacitor("CA", "a", "0", 10e-15)
	c.AddResistor("RB", "vdd", "b", 320)
	c.AddDevice("NB", "b", "0", device.NewRTD())
	c.AddCapacitor("CB", "b", "0", 10e-15)
	c.AddDevice("NT", "a", "b", weak)
	c.AddResistor("RD", "vdd", "d", 2e3)
	c.AddFET("M1", "d", "a", "0", device.NewNMOS())
	c.AddCapacitor("CD", "d", "0", 20e-15)
	return c
}

// TestAwakeSetScansMatchFullScan: on random states in which every row
// outside the scan sets is frozen — rows of blocks asleep now and at the
// last accept equal in x, xPrev and xNew; rows of blocks asleep now
// equal in x and xNew — the per-block eq (10) and eqs (11)-(12) scans
// return exactly what the monolithic full scans return.
func TestAwakeSetScansMatchFullScan(t *testing.T) {
	c, err := NewCompiledTransient(spanningDeck(), Options{TStop: 10e-9, HInit: 0.1e-9, Partition: &part.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	e := c.pe
	if e == nil {
		t.Fatal("deck did not partition")
	}
	e.indexBlockRows()
	tornRTD, remoteGate := false, false
	for _, tr := range e.par.Tears {
		tornRTD = tornRTD || tr.TT != nil
	}
	for _, b := range e.blocks {
		remoteGate = remoteGate || len(b.blk.RemoteGates) > 0
	}
	if !tornRTD || !remoteGate {
		t.Fatalf("deck lacks a torn RTD (%v) or a remote gate (%v)", tornRTD, remoteGate)
	}
	full := fullScanSet(e.sys)
	active := make([]bool, len(e.blocks))
	wasActive := make([]bool, len(e.blocks))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		e.activeIdx, e.scanIdx = e.activeIdx[:0], e.scanIdx[:0]
		for bi := range e.blocks {
			active[bi] = rng.Intn(3) == 0
			wasActive[bi] = rng.Intn(3) == 0
			if active[bi] {
				e.activeIdx = append(e.activeIdx, bi)
			}
			if active[bi] || wasActive[bi] {
				e.scanIdx = append(e.scanIdx, bi)
			}
		}
		for bi, b := range e.blocks {
			for _, r := range b.rows {
				e.x[r], e.xPrev[r], e.xNew[r] = rng.Float64(), rng.Float64(), rng.Float64()
				if !active[bi] {
					e.xNew[r] = e.x[r]
					if !wasActive[bi] {
						e.xPrev[r] = e.x[r]
					}
				}
			}
		}
		e.hPrev = 1e-10 * (0.5 + rng.Float64())
		h := 1e-10 * (0.5 + rng.Float64())
		want := localErrorOf(full.nodes, e.x, e.xPrev, e.xNew, e.hPrev, h, e.vScale, nil)
		if got := e.localError(h); got != want {
			t.Fatalf("trial %d: awake-set eq (10) = %g, full scan %g", trial, got, want)
		}
		want = stepBoundOf(e.sys, &full, e.x, e.xNew, h, e.opt.Eps, e.opt.HMax, e.vScale, nil)
		if got := e.stepBound(h); got != want {
			t.Fatalf("trial %d: awake-set eqs (11)-(12) = %g, full scan %g", trial, got, want)
		}
	}
}

// TestParallelStepZeroAlloc pins the per-step cost of the awake-set
// bookkeeping between the block passes: the wake checks, the
// eq (10)-(12) scans, the accepted-row copies and the row-subset
// recording of a step must not allocate.
func TestParallelStepZeroAlloc(t *testing.T) {
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
	// The last accepted time is the latest sample on record: the rows
	// that moved in the final step recorded it.
	h, tNow := e.hPrev, 0.0
	for _, name := range e.rec.Set().Names() {
		s := e.rec.Set().Get(name)
		tNow = math.Max(tNow, s.T[len(s.T)-1])
	}
	allocs := testing.AllocsPerRun(100, func() {
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

// nanIV is a two-terminal device whose current and conductance are NaN
// everywhere: any block holding one fails its first solve.
type nanIV struct{}

func (nanIV) I(float64) float64 { return math.NaN() }
func (nanIV) G(float64) float64 { return math.NaN() }
func (nanIV) Cost() device.Cost { return device.Cost{Muls: 1} }

// TestPartitionedFailedSolveFinishesPass: when blocks fail their solve,
// the pass still solves every other awake block, and the run reports the
// first failure in block order — so the caller's flop counter does not
// depend on which block failed.
func TestPartitionedFailedSolveFinishesPass(t *testing.T) {
	ckt := pipeline(12, 2)
	ckt.AddDevice("NX1", "sea", "0", nanIV{})
	ckt.AddDevice("NX2", "sja", "0", nanIV{})
	opt := Options{TStop: 25e-9, HInit: 0.1e-9, Partition: &part.Options{}}
	c, err := NewCompiledTransient(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	var failing []int
	for bi, b := range c.pe.blocks {
		for _, tt := range b.sys.TwoTerms() {
			if _, ok := tt.Elem.Model.(nanIV); ok {
				failing = append(failing, bi)
			}
		}
	}
	if len(failing) != 2 || failing[0] == failing[1] {
		t.Fatalf("NaN devices in blocks %v, want two distinct blocks", failing)
	}
	opt.FC = new(flop.Counter)
	_, err = Transient(ckt, opt)
	if want := fmt.Sprintf("block %d at t=0", failing[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want the first failing %s", err, want)
	}
	// Every block is awake on the first step; all but the two failing
	// ones solved.
	if got, want := opt.FC.Snapshot().Solves, int64(len(c.pe.blocks)-2); got != want {
		t.Errorf("%d solves charged, want %d: the pass stopped at the first failure", got, want)
	}
}
