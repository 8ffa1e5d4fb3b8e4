package core

import (
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/flop"
	"nanosim/internal/hier/hiertest"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
)

// resetCounter counts the Resets of a solver: with the constant-stamp
// base, an engine resets and restamps the linear conductances only on
// the assemblies where it has no base to restore.
type resetCounter struct {
	linsolve.Solver
	resets int
}

func (r *resetCounter) Reset() {
	r.resets++
	r.Solver.Reset()
}

// TestBaseIsRunScoped: two runs share one SeqCache, the second on a
// clone with one resistor changed. The cached solvers still hold the
// first circuit's base, so the second run must restamp rather than
// restore it, and equal a run on fresh solvers bit for bit.
func TestBaseIsRunScoped(t *testing.T) {
	deck, err := netparse.Parse(hiertest.PipelineDeck(6, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		popt *part.Options
	}{{"monolithic", nil}, {"partitioned", &part.Options{}}} {
		t.Run(c.name, func(t *testing.T) {
			// A mesh resistor inside stage 2: a block's own conductance,
			// not a tear, under partitioning.
			first := deck.Circuit
			second := first.Clone()
			second.Element("X2.RH1x1").(*circuit.Resistor).R *= 1.5
			seq := &linsolve.SeqCache{Base: linsolve.NewSparse}
			opt := Options{TStop: 25e-9, HInit: 0.1e-9, Solver: seq.Factory, Partition: c.popt}
			seq.Begin()
			if _, err := Transient(first, opt); err != nil {
				t.Fatal(err)
			}
			seq.Begin()
			got, err := Transient(second, opt)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Mismatched() {
				t.Fatal("second run did not reuse the cached solvers")
			}
			opt.Solver = linsolve.NewSparse
			want, err := Transient(second, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, c.name+" reused vs fresh solvers", got, want)
		})
	}
	t.Run("operating point", func(t *testing.T) {
		first := rtdDivider(device.NewRTD(), 300, device.DC(0.8))
		second := first.Clone()
		second.Element("R1").(*circuit.Resistor).R = 450
		seq := &linsolve.SeqCache{Base: linsolve.NewSparse}
		opt := DCOptions{Solver: seq.Factory}
		seq.Begin()
		if _, err := OperatingPoint(first, opt); err != nil {
			t.Fatal(err)
		}
		seq.Begin()
		got, err := OperatingPoint(second, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := OperatingPoint(second, DCOptions{Solver: linsolve.NewSparse})
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations || got.Stats != want.Stats {
			t.Fatalf("reused solver: %d iterations %+v, fresh: %d %+v", got.Iterations, got.Stats, want.Iterations, want.Stats)
		}
		for i := range got.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("x[%d] = %v on the reused solver, %v on a fresh one", i, got.X[i], want.X[i])
			}
		}
	})
}

// TestConstantStampsOncePerRun: a run restamps the constant conductances
// only on its first assembly per solver — twice on a solver still
// recording its first pattern, once on one compiled by an earlier run.
func TestConstantStampsOncePerRun(t *testing.T) {
	for _, c := range []struct {
		name string
		popt *part.Options
	}{{"monolithic", nil}, {"partitioned", &part.Options{}}} {
		t.Run(c.name, func(t *testing.T) {
			seq := &linsolve.SeqCache{Base: func(n int, fc *flop.Counter) linsolve.Solver {
				return &resetCounter{Solver: linsolve.NewSparse(n, fc)}
			}}
			opt := Options{TStop: 25e-9, HInit: 0.1e-9, Solver: seq.Factory, Partition: c.popt}
			resets := func() []int {
				var n []int
				for _, s := range seq.Solvers() {
					n = append(n, s.(*resetCounter).resets)
				}
				return n
			}
			seq.Begin()
			res, err := Transient(pipeline(12, 2), opt)
			if err != nil {
				t.Fatal(err)
			}
			cold := resets()
			for k, n := range cold {
				if n < 1 || n > 2 {
					t.Errorf("cold solver %d reset %d times over %d solves, want 1 or 2", k, n, res.Stats.Solves)
				}
			}
			seq.Begin()
			if _, err := Transient(pipeline(12, 2), opt); err != nil {
				t.Fatal(err)
			}
			for k, n := range resets() {
				if n-cold[k] != 1 {
					t.Errorf("compiled solver %d reset %d times in a run, want 1", k, n-cold[k])
				}
			}
		})
	}
}
