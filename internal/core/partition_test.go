package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
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

func TestPartitionedDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Transient(pipeline(10, 2), Options{
			TStop: 25e-9, HInit: 0.1e-9, Partition: &part.Options{}})
		if err != nil {
			t.Fatalf("transient: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.X) != len(b.X) {
		t.Fatalf("state dim differs across runs")
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("run-to-run nondeterminism at row %d: %g vs %g", i, a.X[i], b.X[i])
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", a.Stats, b.Stats)
	}
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
	e.active = make([]bool, len(e.blocks))
	e.wasActive = make([]bool, len(e.blocks))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		for bi := range e.blocks {
			e.active[bi] = rng.Intn(3) == 0
			e.wasActive[bi] = rng.Intn(3) == 0
		}
		e.listAwake()
		for bi, b := range e.blocks {
			for _, r := range b.rows {
				e.x[r], e.xPrev[r], e.xNew[r] = rng.Float64(), rng.Float64(), rng.Float64()
				if !e.active[bi] {
					e.xNew[r] = e.x[r]
					if !e.wasActive[bi] {
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
