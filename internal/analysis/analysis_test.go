package analysis

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/flop"
	"nanosim/internal/hier/hiertest"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
)

// TestTransientKeepsCallerSolver pins the routing rule: a partitioned
// run with a caller-supplied Solver stays on the flat engine, so every
// block solves on a solver from the caller's factory. (hier would swap
// the repeated blocks' solvers for clones of a donor's template,
// leaving the caller's idle.)
func TestTransientKeepsCallerSolver(t *testing.T) {
	deck, err := netparse.Parse(hiertest.PipelineDeck(8, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var made []linsolve.Solver
	factory := func(n int, fc *flop.Counter) linsolve.Solver {
		s := linsolve.Auto(n, fc)
		mu.Lock()
		made = append(made, s)
		mu.Unlock()
		return s
	}
	res, err := Transient(deck.Circuit, core.Options{TStop: 1e-9, Partition: &part.Options{}, Solver: factory})
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	for _, s := range made {
		if r, ok := s.(linsolve.Refactorable); ok {
			if st := r.SolveStats(); st.FullFactor+st.NumericRefactor == 0 {
				idle++
			}
		}
	}
	if res.Stats.Blocks < 8 || len(made) < res.Stats.Blocks || idle > 0 {
		t.Fatalf("%d blocks, %d solvers from the caller's factory, %d of them idle; want every block on its own", res.Stats.Blocks, len(made), idle)
	}
}

// TestProbedTransientMatchesFull: on every testdata deck with a .tran
// card — monolithic, partitioned through core, and partitioned through
// the hierarchical compiler — a run with Probes records exactly the
// probed series of the full run, bit for bit, and ends in the same X,
// Stats and flop count.
func TestProbedTransientMatchesFull(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	engines := []struct {
		name string
		part bool
		run  func(*circuit.Circuit, core.Options) (*core.Result, error)
	}{
		{"monolithic", false, core.Transient},
		{"core-partitioned", true, core.Transient},
		{"hier-partitioned", true, Transient},
	}
	decks := 0
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		deck, err := netparse.Parse(string(src))
		if err != nil {
			t.Fatal(err)
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
		decks++
		for _, eng := range engines {
			opt := core.Options{TStop: tran.TStop, HInit: tran.TStep, RecordCurrents: true}
			if eng.part {
				opt.Partition = &part.Options{}
			}
			label := filepath.Base(p) + " " + eng.name
			fcFull := new(flop.Counter)
			opt.FC = fcFull
			full, err := eng.run(deck.Circuit.Clone(), opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Every other signal, in reverse, plus a name nothing records.
			var probes, want []string
			names := full.Waves.Names()
			for k := len(names) - 1; k >= 0; k -= 2 {
				probes = append(probes, names[k])
			}
			for k, n := range names {
				if (len(names)-1-k)%2 == 0 {
					want = append(want, n)
				}
			}
			opt.Probes = append(probes, "v(nosuch)")
			fcProbed := new(flop.Counter)
			opt.FC = fcProbed
			probed, err := eng.run(deck.Circuit.Clone(), opt)
			if err != nil {
				t.Fatalf("%s probed: %v", label, err)
			}
			if got := probed.Waves.Names(); !slices.Equal(got, want) {
				t.Fatalf("%s: probed run recorded %v, want %v", label, got, want)
			}
			for _, n := range want {
				a, b := full.Waves.Get(n), probed.Waves.Get(n)
				if !bitsEqual(a.T, b.T) || !bitsEqual(a.V, b.V) {
					t.Fatalf("%s: probed %s differs from the full run's", label, n)
				}
			}
			if !bitsEqual(full.X, probed.X) || full.Stats != probed.Stats || fcFull.Snapshot() != fcProbed.Snapshot() {
				t.Fatalf("%s: probed run ends in a different state, stats or flop count:\n%+v\n%+v", label, full.Stats, probed.Stats)
			}
		}
	}
	if decks == 0 {
		t.Fatal("no testdata deck has a .tran card")
	}
}

// bitsEqual reports whether two float slices hold the same bits.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
