package nanosim

import (
	"nanosim/internal/acan"
	"nanosim/internal/analysis"
	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/dcop"
	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
	"nanosim/internal/part"
	"nanosim/internal/sde"
	"nanosim/internal/tran"
	"nanosim/internal/wave"
)

// Series is one named, sampled signal (strictly increasing time axis).
type Series = wave.Series

// WaveSet is an ordered collection of series, the result payload of
// every analysis. Use Get("v(node)") / Get("i(Vsrc)") to read signals,
// WriteCSV for export and Plot for terminal charts.
type WaveSet = wave.Set

// NewWaveSet returns an empty wave set, for assembling custom plots and
// CSV exports outside an analysis.
func NewWaveSet() *WaveSet { return wave.NewSet() }

// NewSeries returns an empty named series with the given capacity hint.
func NewSeries(name string, capacity int) *Series { return wave.NewSeries(name, capacity) }

// FlopCounter accumulates floating-point-operation accounting across
// analyses; pass one via the options to compare engine costs the way
// the paper's Table I does.
type FlopCounter = flop.Counter

// SolverFactory selects the linear-algebra backend. DenseSolver suits
// circuits below ~160 unknowns, SparseSolver larger ones, AutoSolver
// picks by size.
type SolverFactory = linsolve.Factory

// Solver backends.
var (
	DenseSolver  SolverFactory = linsolve.NewDense
	SparseSolver SolverFactory = linsolve.NewSparse
	AutoSolver   SolverFactory = linsolve.Auto
)

// TranOptions configures the SWEC transient engine (see internal/core
// for field-by-field documentation; zero values select defaults).
type TranOptions = core.Options

// PartitionOptions configures the torn-block SWEC engine: set
// TranOptions.Partition to a (possibly zero) PartitionOptions to split
// the circuit into weakly coupled blocks with per-block solvers and
// dormancy-based latency exploitation (see internal/part).
type PartitionOptions = part.Options

// TranResult is a SWEC transient outcome: Waves plus work Stats.
type TranResult = core.Result

// TranStats reports SWEC work counters.
type TranStats = core.Stats

// Transient runs the paper's primary contribution: the step-wise
// equivalent conductance transient analysis. It never iterates a
// nonlinear solve and never stamps a negative conductance, so NDR
// devices cannot produce the SPICE oscillation/false-convergence
// failures of §3.1.
//
// A partitioned run (opt.Partition set, opt.Solver nil) compiles
// through the hierarchical compiler, which compiles each repeated block
// once and shares it across the blocks that repeat it, subcircuit
// instances or not. The result is bit-identical to the flat engine's:
// every waveform sample, the final state and Stats, flops included. A
// caller-supplied Solver keeps the flat engine, so that every block
// solver comes from it.
func Transient(ckt *Circuit, opt TranOptions) (*TranResult, error) {
	return analysis.Transient(ckt, opt)
}

// BaselineOptions configures the comparison engines.
type BaselineOptions = tran.Options

// BaselineResult is a baseline transient outcome; Stats carries the
// Newton iteration and non-convergence counters the paper's Figure 8
// discussion turns on.
type BaselineResult = tran.Result

// TransientNR runs the SPICE3-style backward-Euler + Newton-Raphson
// baseline (differential conductances; expect trouble on NDR circuits).
func TransientNR(ckt *Circuit, opt BaselineOptions) (*BaselineResult, error) {
	return tran.NR(ckt, opt)
}

// TransientMLA runs the Bhattacharya-Mazumder Modified Limiting
// Algorithm baseline (paper ref [1]): Newton with RTD voltage limiting
// and automatic step reduction.
func TransientMLA(ckt *Circuit, opt BaselineOptions) (*BaselineResult, error) {
	return tran.MLA(ckt, opt)
}

// TransientPWL runs the ACES-style piecewise-linear baseline (paper ref
// [2]).
func TransientPWL(ckt *Circuit, opt BaselineOptions) (*BaselineResult, error) {
	return tran.PWL(ckt, opt)
}

// DCOptions configures the SWEC DC analyses.
type DCOptions = core.DCOptions

// DCResult is a SWEC operating point.
type DCResult = core.DCResult

// SweepResult is a SWEC DC sweep outcome.
type SweepResult = core.SweepResult

// OperatingPoint solves the DC bias point with damped fixed-point
// iteration on the equivalent conductances (each pass is one linear
// solve; no Newton derivatives).
func OperatingPoint(ckt *Circuit, opt DCOptions) (*DCResult, error) {
	return core.OperatingPoint(ckt, opt)
}

// Sweep steps the named voltage source across [v0, v1] in n points,
// warm-starting each bias from the last: the paper's non-iterative DC
// sweep when opt.RefineIters == 0, Aitken-accelerated refinement when
// >= 3. deviceName optionally selects a two-terminal element whose
// branch voltage/current are recorded as "v(dev)"/"i(dev)" — the
// Figure 7 I-V extraction.
func Sweep(ckt *Circuit, srcName string, v0, v1 float64, n int, deviceName string, opt DCOptions) (*SweepResult, error) {
	return core.Sweep(ckt, srcName, v0, v1, n, deviceName, opt)
}

// NewtonDCOptions configures the Newton-Raphson DC baseline.
type NewtonDCOptions = dcop.Options

// NewtonDCResult is a Newton operating point.
type NewtonDCResult = dcop.Result

// NewtonOperatingPoint solves the DC bias SPICE-style: direct Newton,
// then Gmin stepping, then source stepping.
func NewtonOperatingPoint(ckt *Circuit, opt NewtonDCOptions) (*NewtonDCResult, error) {
	return dcop.OperatingPoint(ckt, opt)
}

// NewtonSweepResult is a Newton DC sweep outcome.
type NewtonSweepResult = dcop.SweepResult

// NewtonSweep runs the MLA-style Newton DC sweep baseline; set
// opt.Limit for RTD voltage limiting and opt.ColdStart for the
// repeated-independent-op Table I protocol.
func NewtonSweep(ckt *Circuit, srcName string, v0, v1 float64, n int, deviceName string, opt NewtonDCOptions) (*NewtonSweepResult, error) {
	return dcop.Sweep(ckt, srcName, v0, v1, n, deviceName, opt)
}

// ACOptions configures the AC small-signal analysis (see internal/acan
// for field-by-field documentation; zero values select a 10-points-per-
// decade sweep).
type ACOptions = acan.Options

// ACResult is an AC sweep outcome: per-node magnitude ("vm"), phase
// ("vp"), decibel ("vdb") and — with NOISE= sources — output-noise
// ("onoise") series against frequency, plus the DC operating point the
// devices were linearized at.
type ACResult = acan.Result

// ACStats reports AC sweep work counters.
type ACStats = acan.Stats

// ComplexSolverFactory selects the complex linear backend of the AC
// analysis; SparseComplexSolver is the (only, and default) shipped one.
type ComplexSolverFactory = linsolve.ComplexFactory

// SparseComplexSolver is the compiled-pattern sparse complex backend:
// one symbolic analysis per sweep, one numeric refactor per frequency
// point.
var SparseComplexSolver ComplexSolverFactory = linsolve.NewSparseComplex

// AC runs the small-signal frequency sweep: every nonlinear device is
// linearized at the SWEC DC operating point (differential conductance
// from the cached Geq/dGeq pair — no Newton anywhere), and the phasor
// system (G + jωC)X = B is solved across the grid. Mark sources with
// ACMag/ACPhase for transfer functions; NOISE=-annotated sources
// additionally produce output-noise spectral densities.
func AC(ckt *Circuit, opt ACOptions) (*ACResult, error) {
	return acan.AC(ckt, opt)
}

// AC grid spacing keywords (ACOptions.Grid).
const (
	ACGridDec = acan.GridDec
	ACGridOct = acan.GridOct
	ACGridLin = acan.GridLin
)

// NoiseOptions configures the Euler-Maruyama engine (paper §4). Mark
// sources stochastic by setting their NoiseSigma field.
type NoiseOptions = sde.Options

// NoiseResult is one Euler-Maruyama path.
type NoiseResult = sde.Result

// Stochastic integrates one Euler-Maruyama path of the circuit with its
// white-noise inputs (drift-implicit by default; paper eq 18 explicit
// form via Options.Explicit).
func Stochastic(ckt *Circuit, opt NoiseOptions) (*NoiseResult, error) {
	return sde.Transient(ckt, opt)
}

// EnsembleOptions configures a Monte Carlo ensemble of EM paths.
type EnsembleOptions = sde.EnsembleOptions

// EnsembleResult summarizes an ensemble: pointwise mean/std envelopes
// plus per-path peak statistics for window-peak prediction (§4.2).
type EnsembleResult = sde.EnsembleResult

// MonteCarlo runs an ensemble of Euler-Maruyama paths and aggregates
// the selected signal. Reproducible: paths derive deterministically from
// Base.Seed.
func MonteCarlo(ckt *Circuit, opt EnsembleOptions) (*EnsembleResult, error) {
	return sde.Ensemble(ckt, opt)
}

// PSDWelch estimates the one-sided power spectral density of a
// uniformly sampled signal (Welch's method, Hann windows, 50% overlap) —
// the spectral view of an Euler-Maruyama path.
func PSDWelch(vals []float64, dt float64, segLen int) (freqs, psd []float64, err error) {
	return sde.PSDWelch(vals, dt, segLen)
}

// VSource re-exports the voltage source element type so callers can set
// NoiseSigma on sources returned by Circuit.AddVSource.
type VSource = circuit.VSource

// ISource mirrors VSource for current sources.
type ISource = circuit.ISource
