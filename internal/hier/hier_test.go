package hier

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nanosim/internal/core"
	"nanosim/internal/flop"
	"nanosim/internal/hier/hiertest"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
	"nanosim/internal/stamp"
)

// requireBitIdentical asserts two transient results are bitwise equal:
// final state, every raw waveform sample (names, order, lengths, each T
// and V bit for bit), and the work statistics.
func requireBitIdentical(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: state dim differs (%d vs %d)", label, len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("%s: state row %d differs: %g vs %g", label, i, a.X[i], b.X[i])
		}
	}
	an, bn := a.Waves.Names(), b.Waves.Names()
	if len(an) != len(bn) {
		t.Fatalf("%s: signal count differs (%d vs %d)", label, len(an), len(bn))
	}
	for k, name := range an {
		if bn[k] != name {
			t.Fatalf("%s: signal %d is %q vs %q", label, k, name, bn[k])
		}
		wa, wb := a.Waves.Get(name), b.Waves.Get(name)
		if len(wa.T) != len(wb.T) || len(wa.V) != len(wb.V) {
			t.Fatalf("%s: signal %q has %d vs %d samples", label, name, len(wa.T), len(wb.T))
		}
		for i := range wa.T {
			if math.Float64bits(wa.T[i]) != math.Float64bits(wb.T[i]) ||
				math.Float64bits(wa.V[i]) != math.Float64bits(wb.V[i]) {
				t.Fatalf("%s: signal %q sample %d differs: (%g, %g) vs (%g, %g)",
					label, name, i, wa.T[i], wa.V[i], wb.T[i], wb.V[i])
			}
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, a.Stats, b.Stats)
	}
}

// compileAndRun runs hier.CompileTransient and executes the result.
func compileAndRun(t *testing.T, src string, opt core.Options) (*core.Result, *Report) {
	t.Helper()
	deck, err := netparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ct, rep, err := CompileTransient(deck.Circuit, opt)
	if err != nil {
		t.Fatalf("hier compile: %v", err)
	}
	res, err := ct.Run()
	if err != nil {
		t.Fatalf("hier run: %v", err)
	}
	return res, rep
}

// TestHierMatchesFlatGoldenDecks is the cross-path property test: on
// every golden deck with a .tran card, at 1 and 4 workers, the
// hierarchical compile must reproduce the flat engine bit-for-bit —
// waveforms, final state, Stats (flops included) and block count.
func TestHierMatchesFlatGoldenDecks(t *testing.T) {
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
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/w%d", filepath.Base(path), workers)
			t.Run(name, func(t *testing.T) {
				opt := core.Options{
					TStop: tran.TStop, HInit: tran.TStep,
					Workers: workers, Partition: &part.Options{},
					FC: &flop.Counter{},
				}
				flat, err := core.Transient(deck.Circuit, opt)
				if err != nil {
					t.Fatalf("flat: %v", err)
				}
				opt.FC = &flop.Counter{}
				got, rep := compileAndRun(t, string(src), opt)
				requireBitIdentical(t, name, flat, got)
				if rep.Blocks != flat.Stats.Blocks && !(rep.Blocks == 1 && flat.Stats.Blocks == 0) {
					t.Fatalf("block count %d, flat saw %d", rep.Blocks, flat.Stats.Blocks)
				}
				if rep.Fallbacks != 0 {
					t.Fatalf("%d adopt fallbacks on %s", rep.Fallbacks, path)
				}
			})
		}
	}
}

// TestHierSharesAcrossInstances checks the structural outcome on a
// generated instance pipeline: every interior stage adopts the first
// interior stage's compiled block, gets a cloned solver template, and
// still matches the flat engine bit-for-bit.
func TestHierSharesAcrossInstances(t *testing.T) {
	const stages = 48
	src := hiertest.PipelineDeck(stages, 2, 5)
	deck, err := netparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		TStop: 20e-9, HInit: 0.1e-9,
		Partition: &part.Options{}, FC: &flop.Counter{},
	}
	flat, err := core.Transient(deck.Circuit, opt)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}

	opt.FC = &flop.Counter{}
	deck2, err := netparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ct, rep, err := CompileTransient(deck2.Circuit, opt)
	if err != nil {
		t.Fatalf("hier compile: %v", err)
	}
	// Interior stages (all but the first, which sees the stiff drive,
	// and the last, which carries the load) must collapse into one
	// group; the clone count matches the adopters on the sparse path.
	if rep.Adopted < stages-3 {
		t.Fatalf("adopted %d of %d stages; report %+v", rep.Adopted, stages, rep)
	}
	if rep.Cloned != rep.Adopted {
		t.Fatalf("cloned %d != adopted %d (stage blocks are sparse-sized)", rep.Cloned, rep.Adopted)
	}
	if rep.Fallbacks != 0 {
		t.Fatalf("adopt fallbacks: %+v", rep)
	}
	if rep.Masters["stage"] != rep.Adopted {
		t.Fatalf("master attribution %v, want stage=%d", rep.Masters, rep.Adopted)
	}
	if got := rep.SharingFactor(); got < 8 {
		t.Fatalf("sharing factor %.1f, want >= 8", got)
	}

	got, err := ct.Run()
	if err != nil {
		t.Fatalf("hier run: %v", err)
	}
	requireBitIdentical(t, "pipeline48", flat, got)

	// No solver of a shared group (the donor and its members share one
	// MNA view) may have rebuilt its pattern or full-factored at run
	// time: the donor's template must have carried every member. A
	// block nothing shares with compiles on its first solve, as in the
	// flat engine, so it full-factors once.
	shared := map[*stamp.System]int{}
	for _, blk := range ct.Par.Blocks {
		shared[blk.Sys]++
	}
	sharedBlocks := 0
	for bi := 0; bi < ct.NumBlocks(); bi++ {
		sol := ct.BlockSolver(bi)
		if !linsolve.CarriesPivotOrder(sol) {
			continue
		}
		r, ok := sol.(linsolve.Refactorable)
		if !ok {
			continue
		}
		st := r.SolveStats()
		if st.PatternRebuild != 0 {
			t.Fatalf("block %d: pattern rebuilt %d times", bi, st.PatternRebuild)
		}
		if shared[ct.Par.Blocks[bi].Sys] < 2 {
			continue
		}
		sharedBlocks++
		if st.FullFactor != 0 {
			t.Fatalf("block %d: %d run-time full factorizations", bi, st.FullFactor)
		}
	}
	if sharedBlocks < rep.Adopted {
		t.Fatalf("%d blocks ran on a shared template, want >= %d adopted", sharedBlocks, rep.Adopted)
	}
}

// TestHierPipelineAdoptsAndMatchesFlat compiles a pipeline of sparse
// 10x10-mesh stages for the worker pool: every interior stage must
// adopt the one compiled stage, and the run must reproduce the flat
// compile bit for bit. The compile-time ratio on the 4096-stage version
// of this deck is the hier_compile gate of `nanobench -solverbench`.
func TestHierPipelineAdoptsAndMatchesFlat(t *testing.T) {
	const stages = 256
	deck, err := netparse.Parse(hiertest.PipelineDeck(stages, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		TStop: 2e-9, HInit: 0.1e-9,
		Partition: &part.Options{}, Workers: 4,
	}
	hierCT, rep, err := CompileTransient(deck.Circuit, opt)
	if err != nil {
		t.Fatalf("hier compile: %v", err)
	}
	if rep.Adopted < stages-3 || rep.Cloned != rep.Adopted || rep.Fallbacks != 0 {
		t.Fatalf("adopted %d, cloned %d of %d stages; report %+v", rep.Adopted, rep.Cloned, stages, rep)
	}
	flatCT, err := core.CompileTransient(deck.Circuit, opt)
	if err != nil {
		t.Fatalf("flat compile: %v", err)
	}
	flatRes, err := flatCT.Run()
	if err != nil {
		t.Fatalf("flat run: %v", err)
	}
	hierRes, err := hierCT.Run()
	if err != nil {
		t.Fatalf("hier run: %v", err)
	}
	requireBitIdentical(t, "pipeline256", flatRes, hierRes)
}
