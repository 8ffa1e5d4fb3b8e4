// Benchmarks regenerating the cost side of every table and figure in the
// paper's evaluation, plus the infrastructure micro-benches the DESIGN.md
// ablations reference. Run with:
//
//	go test -bench=. -benchmem
//
// Shape expectations (documented in EXPERIMENTS.md): SWEC beats the
// Newton engines per time point everywhere; the Table I cold-start
// protocol shows the paper's 20-40x band; dense/sparse LU cross over
// at linsolve.AutoCrossover (re-measured by BenchmarkSolverStep).
package nanosim_test

import (
	"fmt"
	"strings"
	"testing"

	"nanosim"
	"nanosim/internal/dcop"
	"nanosim/internal/device"
	"nanosim/internal/exp"
	"nanosim/internal/hier"
	"nanosim/internal/hier/hiertest"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
	"nanosim/internal/randx"
	"nanosim/internal/sde"
	"nanosim/internal/spmat"
)

// BenchmarkTable1DCSweep is Table I: the RTD divider I-V sweep under the
// three protocols.
func BenchmarkTable1DCSweep(b *testing.B) {
	mk := func() *nanosim.Circuit {
		c := nanosim.NewCircuit("table1")
		c.AddVSource("V1", "in", "0", nanosim.DC(0))
		c.AddResistor("R1", "in", "d", 300)
		c.AddDevice("N1", "d", "0", nanosim.NewRTD())
		return c
	}
	b.Run("swec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.Sweep(mk(), "V1", 0, 1.5, 151, "N1", nanosim.DCOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mla-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.NewtonSweep(mk(), "V1", 0, 1.5, 151, "N1",
				nanosim.NewtonDCOptions{Limit: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mla-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.NewtonSweep(mk(), "V1", 0, 1.5, 151, "N1",
				nanosim.NewtonDCOptions{Limit: true, ColdStart: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5Conductance compares one differential-conductance
// evaluation against one equivalent-conductance evaluation (the per-step
// device cost behind Figure 5).
func BenchmarkFig5Conductance(b *testing.B) {
	rtd := nanosim.NewRTD()
	b.Run("differential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rtd.G(0.4)
		}
	})
	b.Run("swec-geq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = nanosim.Geq(rtd, 0.4)
		}
	})
}

// BenchmarkFig7aSweep regenerates the Figure 7(a) divider sweep with the
// Aitken-refined accuracy settings.
func BenchmarkFig7aSweep(b *testing.B) {
	c := nanosim.NewCircuit("fig7a")
	c.AddVSource("V1", "in", "0", nanosim.DC(0))
	c.AddResistor("R1", "in", "d", 100)
	c.AddDevice("N1", "d", "0", nanosim.NewRTD())
	c.AddCapacitor("CD", "d", "0", 10e-15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nanosim.Sweep(c, "V1", 0, 1.5, 151, "N1", nanosim.DCOptions{RefineIters: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Inverter times the Figure 8 transient on all four
// engines.
func BenchmarkFig8Inverter(b *testing.B) {
	const tStop = 500e-9
	b.Run("swec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.Transient(exp.FETRTDInverter(exp.InverterInput()),
				nanosim.TranOptions{TStop: tStop}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.TransientNR(exp.FETRTDInverter(exp.InverterInput()),
				nanosim.BaselineOptions{TStop: tStop}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mla", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.TransientMLA(exp.FETRTDInverter(exp.InverterInput()),
				nanosim.BaselineOptions{TStop: tStop}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pwl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.TransientPWL(exp.FETRTDInverter(exp.InverterInput()),
				nanosim.BaselineOptions{TStop: tStop}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9FlipFlop times the Figure 9 MOBILE latch transient.
func BenchmarkFig9FlipFlop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := nanosim.Transient(exp.RTDDFF(exp.DFFClock(), exp.DFFData()),
			nanosim.TranOptions{TStop: 500e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10EM times the Figure 10 stochastic analyses: one
// Euler-Maruyama path and a small ensemble.
func BenchmarkFig10EM(b *testing.B) {
	b.Run("path", func(b *testing.B) {
		ckt := exp.NoisyRCNode(8e-10)
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.Stochastic(ckt, nanosim.NoiseOptions{
				TStop: 1e-9, Steps: 400, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ensemble100", func(b *testing.B) {
		ckt := exp.NoisyRCNode(8e-10)
		for i := 0; i < b.N; i++ {
			if _, err := nanosim.MonteCarlo(ckt, nanosim.EnsembleOptions{
				Base:  nanosim.NoiseOptions{TStop: 1e-9, Steps: 200, Seed: uint64(i)},
				Paths: 100,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpeedupChain is the headline scaling comparison: SWEC vs the
// Newton baseline on the same fixed grid across chain sizes.
func BenchmarkSpeedupChain(b *testing.B) {
	step := nanosim.Pulse{V1: 0.3, V2: 1.1, Delay: 20e-9, Rise: 2e-9, Fall: 2e-9, Width: 100e-9}
	const tStop, h = 200e-9, 0.5e-9
	for _, n := range []int{5, 20, 60, 200} {
		b.Run(fmt.Sprintf("swec-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nanosim.Transient(exp.RTDChain(n, step), nanosim.TranOptions{
					TStop: tStop, FixedStep: true, HInit: h}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nr-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nanosim.TransientNR(exp.RTDChain(n, step), nanosim.BaselineOptions{
					TStop: tStop, HInit: h, HMax: h, HMin: h}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolver locates the dense/sparse LU crossover that
// linsolve.Auto encodes (ABL-SOLVE). Each iteration is one repeated
// solve against an unchanged matrix — both backends reuse their
// factorization, so this isolates triangular-solve cost.
func BenchmarkSolver(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		build := func(s linsolve.Solver) {
			for i := 0; i < n; i++ {
				s.Add(i, i, 2.1)
				if i > 0 {
					s.Add(i, i-1, -1)
				}
				if i < n-1 {
					s.Add(i, i+1, -1)
				}
			}
		}
		rhs := make([]float64, n)
		rhs[0] = 1
		out := make([]float64, n)
		b.Run(fmt.Sprintf("dense-n%d", n), func(b *testing.B) {
			s := linsolve.NewDense(n, nil)
			build(s)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Solve(rhs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse-n%d", n), func(b *testing.B) {
			s := linsolve.NewSparse(n, nil)
			build(s)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Solve(rhs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverStep is the per-time-point hot path the tentpole
// optimizes: a full Reset → restamp → Solve cycle with pattern-stable
// values. "sparse" uses the compiled-pattern + symbolic-reuse path;
// "sparse-naive" rebuilds the map triplet and re-runs the full
// min-degree factorization every cycle (the pre-optimization behaviour,
// kept as the regression reference). The dense/sparse crossover measured
// here calibrates linsolve.AutoCrossover; `nanobench -solverbench`
// records the same measurement to BENCH_solver.json.
func BenchmarkSolverStep(b *testing.B) {
	for _, n := range []int{16, 24, 32, 64, 200, 512} {
		rhs := make([]float64, n)
		rhs[0] = 1
		out := make([]float64, n)
		b.Run(fmt.Sprintf("dense-n%d", n), func(b *testing.B) {
			s := linsolve.NewDense(n, nil)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exp.StampLadderSystem(s, n, 1e-3+1e-9*float64(i%7))
				if err := s.Solve(rhs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse-n%d", n), func(b *testing.B) {
			s := linsolve.NewSparse(n, nil)
			exp.StampLadderSystem(s, n, 1e-3)
			if err := s.Solve(rhs, out); err != nil {
				b.Fatal(err) // compile pattern + symbolic analysis once
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exp.StampLadderSystem(s, n, 1e-3+1e-9*float64(i%7))
				if err := s.Solve(rhs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse-naive-n%d", n), func(b *testing.B) {
			t := spmat.NewTriplet(n, n)
			b.ResetTimer()
			b.ReportAllocs()
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
	}
}

// BenchmarkLadderRC is the n≥200 scaling bench on a pure RC ladder: the
// steady-state transient stepping cost with no device evaluations, so
// the solver hot path dominates. Run with -benchmem: the sparse path
// must report 0 allocs/op in steady state.
func BenchmarkLadderRC(b *testing.B) {
	step := nanosim.Pulse{V1: 0, V2: 1, Delay: 5e-9, Rise: 1e-9, Fall: 1e-9, Width: 60e-9}
	for _, n := range []int{200, 500} {
		b.Run(fmt.Sprintf("swec-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nanosim.Transient(exp.RCLadder(n, step), nanosim.TranOptions{
					TStop: 100e-9, FixedStep: true, HInit: 0.5e-9}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeviceEval times the compact models (the inner loop of every
// engine).
func BenchmarkDeviceEval(b *testing.B) {
	rtd := device.NewRTD()
	wire := device.NewNanowire()
	rtt := device.NewRTT()
	b.Run("rtd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rtd.I(0.4)
		}
	})
	b.Run("nanowire", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = wire.I(0.9)
		}
	})
	b.Run("rtt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rtt.I(1.1)
		}
	})
}

// BenchmarkPartitionedRun times the partitioned transient run of
// nanosim.Transient's route (hier.CompileTransient, then Run) on
// perfbench's subckt-pipeline shape — n stages of one 4x4 RTD-mesh
// .subckt, .tran 0.1n 10n — at two sizes. Parse and compile stay
// outside the timer. It reports the time and block solves per attempted
// step (Steps+Rejected): with dormancy the bookkeeping of a step
// follows the awake blocks, so ns/attempt should not grow in step with
// n while solves/attempt stays flat.
func BenchmarkPartitionedRun(b *testing.B) {
	for _, n := range []int{256, 2048} {
		b.Run(fmt.Sprintf("stages=%d", n), func(b *testing.B) {
			src := strings.TrimSuffix(hiertest.PipelineDeck(n, 4, 4), ".end\n") + ".tran 0.1n 10n\n.end\n"
			var attempts, solves int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				deck, err := netparse.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				tr := deck.Analyses[0]
				opt := nanosim.TranOptions{TStop: tr.TStop, HInit: tr.TStep, Partition: &nanosim.PartitionOptions{}}
				ct, _, err := hier.CompileTransient(deck.Circuit, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := ct.Run()
				if err != nil {
					b.Fatal(err)
				}
				attempts += int64(res.Stats.Steps + res.Stats.Rejected)
				solves += res.Stats.BlockSolves
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
			b.ReportMetric(float64(solves)/float64(attempts), "solves/attempt")
		})
	}
}

// BenchmarkWienerPath times stochastic path generation (ABL-EM
// infrastructure).
func BenchmarkWienerPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = randx.NewWiener(randx.Split(1, i), 1e-9, 512)
	}
}

// BenchmarkItoSums times the eq (15)/(16) discretizations.
func BenchmarkItoSums(b *testing.B) {
	w := randx.NewWiener(randx.New(5), 1, 1024)
	b.Run("ito", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sde.ItoWdW(w)
		}
	})
	b.Run("stratonovich", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sde.StratonovichWdW(w)
		}
	})
}

// BenchmarkScalarNewtonVsGeq compares the per-point cost of the two
// linearizations on the Figure 2 load line (dcop infrastructure).
func BenchmarkScalarNewtonVsGeq(b *testing.B) {
	rtd := device.NewRTD()
	b.Run("newton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dcop.ScalarNewton(rtd, 0.8, 600, 0.1, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}
