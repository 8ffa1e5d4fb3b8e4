// Command nanosim runs SPICE-flavoured netlists through the Nano-Sim
// engines. Analyses come from the deck's cards:
//
//	.op            SWEC operating point
//	.dc ...        SWEC DC sweep (Figure 7 style I-V extraction)
//	.ac ...        small-signal frequency sweep + noise spectra
//	.tran ...      SWEC transient
//	.em ...        Euler-Maruyama transient with NOISE= sources
//	.set tran ...  single-electron kinetic Monte Carlo transient
//	.set map ...   Coulomb-diamond map (gate x drain mean current)
//
// Process-variation cards switch the deck into batch mode instead of
// running the analyses one by one:
//
//	.step ...      deterministic parameter sweep (cartesian over cards)
//	.mc N ...      Monte Carlo over the deck's .vary specs, with yield
//	               against the .limit cards
//
// Usage:
//
//	nanosim [-engine swec|nr|mla|pwl] [-csv out.csv] [-plot] deck.sp
//	nanosim -mc 500 -workers 8 deck.sp     (override .mc trial count)
//	nanosim -step deck.sp                  (run only the .step sweep)
//	nanosim -ac deck.sp                    (run only the .ac analyses)
//	nanosim -partition deck.sp             (torn-block SWEC engine, like
//	                                        a '.options partition' card)
//
// The -engine flag switches the transient engine so the paper's
// comparisons can be run on any deck; DC, EM and the batch modes always
// use the SWEC machinery.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"nanosim"
	"nanosim/internal/analysis"
	"nanosim/internal/netparse"
	"nanosim/internal/pipeline"
)

// config carries the CLI flags into run.
type config struct {
	engine    string
	csvPath   string
	plot      bool
	width     int
	height    int
	mc        int  // override .mc trial count (0 = deck value)
	step      bool // run only the .step sweep
	ac        bool // run only the .ac analyses
	workers   int
	seed      uint64
	seedSet   bool
	partition bool    // force the torn-block SWEC engine
	gcouple   float64 // partitioner coupling threshold (0 = default)
	threads   int     // engine worker pools (-j; 0 = deck/default)
}

func main() {
	cfg, path, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(os.Stdout, path, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "nanosim:", err)
		os.Exit(1)
	}
}

// parseArgs reads the command line (without the program name) into a
// config and the deck path. Usage and flag errors go to stderr.
func parseArgs(args []string, stderr io.Writer) (config, string, error) {
	var cfg config
	fs := flag.NewFlagSet("nanosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.engine, "engine", "swec", "transient engine: swec, nr, mla or pwl")
	fs.StringVar(&cfg.csvPath, "csv", "", "write analysis waveforms as CSV to this file")
	fs.BoolVar(&cfg.plot, "plot", true, "render ASCII plots of the results")
	fs.IntVar(&cfg.width, "width", 78, "plot width in characters")
	fs.IntVar(&cfg.height, "height", 16, "plot height in characters")
	fs.IntVar(&cfg.mc, "mc", 0, "run a Monte Carlo with this many trials (overrides the .mc card count)")
	fs.BoolVar(&cfg.step, "step", false, "run only the deck's .step parameter sweep")
	fs.BoolVar(&cfg.ac, "ac", false, "run only the deck's .ac small-signal analyses")
	fs.IntVar(&cfg.workers, "workers", 0, "parallel workers for -mc/-step batches (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.partition, "partition", false, "run SWEC transients on the torn-block engine (like a '.options partition' card)")
	fs.Float64Var(&cfg.gcouple, "gcouple", 0, "partitioner coupling threshold in (0,1) (0 = engine default)")
	fs.IntVar(&cfg.threads, "j", 0, "worker threads for the partitioned-transient and AC engines (like a '.options threads=' card; results are bit-identical at any value)")
	fs.Uint64Var(&cfg.seed, "seed", 0, "override the Monte Carlo seed")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nanosim [flags] deck.sp\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cfg, "", err
	}
	fs.Visit(func(f *flag.Flag) { cfg.seedSet = cfg.seedSet || f.Name == "seed" })
	if fs.NArg() != 1 {
		fs.Usage()
		return cfg, "", errors.New("want exactly one deck")
	}
	return cfg, fs.Arg(0), nil
}

func run(stdout io.Writer, path string, cfg config) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	deck, err := netparse.Parse(string(src))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "* %s\n", deck.Circuit.Title)
	fmt.Fprintf(stdout, "* %d elements, %d nodes, %d analyses\n\n",
		len(deck.Circuit.Elements()), deck.Circuit.NumNodes()-1, len(deck.Analyses))
	if cfg.gcouple != 0 && (cfg.gcouple <= 0 || cfg.gcouple >= 1) {
		return fmt.Errorf("-gcouple %g out of range (want a ratio in (0,1))", cfg.gcouple)
	}
	wantMC := cfg.mc > 0 || deck.MC != nil
	wantStep := cfg.step || len(deck.Steps) > 0
	ovr := pipeline.Overrides{
		Trials: cfg.mc, Workers: cfg.workers, Threads: cfg.threads,
		Partition: cfg.partition, GCouple: cfg.gcouple,
	}
	if cfg.seedSet && wantMC {
		// -seed reseeds the .mc batch only, never a single run.
		ovr.Seed = &cfg.seed
	}
	plan, err := pipeline.New(deck, ovr)
	if err != nil {
		return err
	}
	if cfg.gcouple != 0 && plan.Partition() == nil {
		return fmt.Errorf("-gcouple needs -partition (or a '.options partition' card in the deck)")
	}
	if cfg.threads < 0 {
		return fmt.Errorf("-j %d out of range (want an integer >= 0)", cfg.threads)
	}

	if wantMC || wantStep {
		if wantStep {
			if err := runStep(stdout, plan, deck); err != nil {
				return err
			}
		}
		if wantMC && !cfg.step {
			if err := runMC(stdout, plan, deck, cfg); err != nil {
				return err
			}
		}
		return nil
	}

	analyses := deck.Analyses
	if cfg.ac {
		analyses = nil
		for _, a := range deck.Analyses {
			if a.Kind == "ac" {
				analyses = append(analyses, a)
			}
		}
		if len(analyses) == 0 {
			return fmt.Errorf("-ac needs a .ac card in the deck")
		}
	}
	if len(analyses) == 0 {
		return fmt.Errorf("deck has no analysis cards (.op/.dc/.ac/.tran/.em/.set)")
	}
	var lastWaves *nanosim.WaveSet
	for _, a := range analyses {
		waves, err := runCard(stdout, plan, deck, a, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", pipeline.Label(a.Kind), err)
		}
		if waves != nil {
			lastWaves = waves
		}
	}
	if cfg.csvPath != "" && lastWaves != nil {
		if err := writeCSV(stdout, cfg.csvPath, lastWaves); err != nil {
			return err
		}
	}
	return nil
}

// runCard runs one analysis card and prints it; it returns the waves
// -csv writes (none for an .op).
func runCard(w io.Writer, plan *pipeline.Plan, deck *netparse.Deck, a netparse.Analysis, cfg config) (*nanosim.WaveSet, error) {
	if a.Kind == "tran" && cfg.engine != "swec" && cfg.engine != "" {
		waves, desc, err := runBaseline(deck.Circuit, cfg.engine, a)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "== .tran to %s (%s engine) ==\n%s\n", nanosim.FormatValue(a.TStop, 3), cfg.engine, desc)
		return waves, plotCard(w, waves, cfg, presentNames(waves, deck.Prints))
	}
	out, err := analysis.Run(deck.Circuit, plan.Card(a))
	if err != nil {
		return nil, err
	}
	if a.Kind == "op" {
		fmt.Fprintf(w, "== .op (SWEC fixed point, %d iterations) ==\n", out.OP.Iterations)
		for _, n := range deck.Circuit.NodeNames() {
			v := out.OP.X[int(deck.Circuit.Node(n))-1]
			fmt.Fprintf(w, "  v(%s) = %s\n", n, nanosim.FormatValue(v, 5))
		}
		fmt.Fprintln(w)
		return nil, nil
	}
	names := presentNames(out.Waves, deck.Prints)
	switch a.Kind {
	case "dc":
		fmt.Fprintf(w, "== .dc %s %g -> %g (%d points) ==\n", a.Src, a.From, a.To, a.Points)
		names = nil
		if a.Device != "" {
			names = []string{"i(dev)"}
		}
	case "ac":
		res := out.AC
		fmt.Fprintf(w, "== .ac %s %d %s -> %s (%d points, %d noise sources, OP in %d iterations) ==\n",
			a.ACGrid, a.Points, nanosim.FormatValue(a.From, 3), nanosim.FormatValue(a.To, 3),
			len(res.Freqs), res.NoiseSources, res.OPIterations)
		// A shared .print list may mix time-domain names into an AC
		// deck; presentNames kept only the names this sweep produced.
		if len(names) == 0 {
			// Every vm/vp/vdb/onoise series at once is unreadable;
			// default to the magnitude curves.
			for _, n := range res.Waves.Names() {
				if strings.HasPrefix(n, "vdb(") {
					names = append(names, n)
				}
			}
		}
	case "tran":
		st := out.Tran.Stats
		desc := fmt.Sprintf("steps=%d rejected=%d solves=%d (no Newton iterations)", st.Steps, st.Rejected, st.Solves)
		if st.Blocks > 0 {
			desc += fmt.Sprintf("\npartition: %d blocks, %d tears, %d block-solves, %d dormant block-steps skipped",
				st.Blocks, st.Tears, st.BlockSolves, st.BlockSkips)
		}
		fmt.Fprintf(w, "== .tran to %s (%s engine) ==\n%s\n", nanosim.FormatValue(a.TStop, 3), cfg.engine, desc)
	case "em":
		fmt.Fprintf(w, "== .em to %s (%d steps, %d noise sources, seed %d) ==\n",
			nanosim.FormatValue(a.TStop, 3), a.Steps, out.EM.NoiseSources, a.Seed)
	case "settran":
		res := out.SET
		fmt.Fprintf(w, "== .set tran to %s (T=%gK, seed %d): %d tunneling events, %d env solves ==\n",
			nanosim.FormatValue(a.TStop, 3), res.Temp, a.Seed, res.Events, res.EnvSolves)
	case "setmap":
		res := out.Map
		fmt.Fprintf(w, "== .set map %s %g -> %g (%d points) x %s %g -> %g (%d points), %s method, T=%gK ==\n",
			a.Src, a.From, a.To, a.Points, a.Src2, a.From2, a.To2, a.Points2, res.Method, res.Temp)
		if period, err := res.GatePeriod(len(res.Drain) - 1); err == nil {
			fmt.Fprintf(w, "  Coulomb oscillation period: %s (e/Cgate for a clean SET)\n",
				nanosim.FormatValue(period, 4))
		}
		names = nil
	}
	return out.Waves, plotCard(w, out.Waves, cfg, names)
}

// plotCard ends a card's section: its plot when plots are on, then a
// blank line.
func plotCard(w io.Writer, waves *nanosim.WaveSet, cfg config, names []string) error {
	if cfg.plot {
		if err := waves.Plot(w, cfg.width, cfg.height, names...); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

func writeCSV(stdout io.Writer, path string, waves *nanosim.WaveSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := waves.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// runMC executes the deck's Monte Carlo cards.
func runMC(w io.Writer, plan *pipeline.Plan, deck *netparse.Deck, cfg config) error {
	opt, err := plan.MC()
	if err != nil {
		return err
	}
	res, err := nanosim.Vary(deck.Circuit, opt)
	if err != nil {
		return fmt.Errorf(".mc: %w", err)
	}
	fmt.Fprintf(w, "== .mc %d trials (%s job, seed %d) ==\n", res.Trials, opt.Job.Analysis, opt.Seed)
	for _, sp := range opt.Specs {
		fmt.Fprintf(w, "  vary %s\n", sp)
	}
	if res.Failed > 0 {
		fmt.Fprintf(w, "  %d trials FAILED; first: %v\n", res.Failed, res.TrialErrors[0])
	}
	env := nanosim.NewWaveSet()
	for _, sg := range res.Signals {
		nom := res.Nominal.Get(sg.Name)
		q50, _ := sg.Quantile(0.5)
		qlo, _ := sg.Quantile(0.05)
		qhi, _ := sg.Quantile(0.95)
		fmt.Fprintf(w, "\n  %s final: nominal %s | median %s [q05 %s, q95 %s]\n",
			sg.Name, nanosim.FormatValue(nom.Final(), 4), nanosim.FormatValue(q50, 4),
			nanosim.FormatValue(qlo, 4), nanosim.FormatValue(qhi, 4))
		if sg.FinalHist != nil {
			fmt.Fprint(w, indent(sg.FinalHist.String(), "  "))
		}
		for _, s := range []*nanosim.Series{sg.Mean, sg.QLo, sg.QHi} {
			if s != nil {
				if err := env.Add(s); err != nil {
					return err
				}
			}
		}
	}
	if len(opt.Limits) > 0 {
		for _, l := range opt.Limits {
			fmt.Fprintf(w, "  limit %s\n", l)
		}
		fmt.Fprintf(w, "  yield: %.1f%% +/- %.1f%% (%d/%d trials pass)\n",
			100*res.Yield, 100*res.YieldSE, res.Passed, res.Trials)
	}
	if cfg.plot && env.Len() > 0 {
		fmt.Fprintln(w, "\n  envelope (mean with quantile band):")
		if err := env.Plot(w, cfg.width, cfg.height); err != nil {
			return err
		}
	}
	if cfg.csvPath != "" && env.Len() > 0 {
		if err := writeCSV(w, cfg.csvPath, env); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\n  solver reuse: %d numeric refactors, %d full factorizations\n",
		res.Solve.NumericRefactor, res.Solve.FullFactor)
	// Failed trials were reported above; they must also fail the exit
	// status, or batch drivers (CI, scripts) read a broken batch as
	// success.
	if res.Failed > 0 {
		return fmt.Errorf(".mc: %d of %d trials failed (first: %v)", res.Failed, res.Trials, res.TrialErrors[0])
	}
	return nil
}

// runStep executes the deck's .step sweep.
func runStep(w io.Writer, plan *pipeline.Plan, deck *netparse.Deck) error {
	opt, err := plan.Step()
	if err != nil {
		return err
	}
	res, err := nanosim.ParamSweep(deck.Circuit, opt)
	if err != nil {
		return fmt.Errorf(".step: %w", err)
	}
	fmt.Fprintf(w, "== .step sweep: %d points (%s job) ==\n", res.Runs(), opt.Job.Analysis)
	header := make([]string, 0, len(res.Axes)+len(res.Signals))
	for _, a := range res.Axes {
		name := a.Elem
		if a.Param != "" {
			name += "(" + a.Param + ")"
		}
		header = append(header, name)
	}
	// Sort a copy: res.Signals documents the selection order.
	signals := append([]string(nil), res.Signals...)
	sort.Strings(signals)
	for _, s := range signals {
		header = append(header, "final "+s)
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(header, "\t"))
	for r := 0; r < res.Runs(); r++ {
		row := make([]string, 0, len(header))
		for _, v := range res.Values[r] {
			row = append(row, nanosim.FormatValue(v, 4))
		}
		for _, s := range signals {
			v := res.Final[s][r]
			if math.IsNaN(v) {
				row = append(row, "FAILED")
			} else {
				row = append(row, nanosim.FormatValue(v, 4))
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(row, "\t"))
	}
	fmt.Fprintln(w)
	// As with .mc: failed grid points fail the exit status.
	if res.Failed > 0 {
		return fmt.Errorf(".step: %d of %d points failed (first: %v)", res.Failed, res.Runs(), res.TrialErrors[0])
	}
	return nil
}

// runBaseline runs a .tran card through one of the comparison engines
// (-engine nr|mla|pwl).
func runBaseline(ckt *nanosim.Circuit, engine string, a netparse.Analysis) (*nanosim.WaveSet, string, error) {
	opt := nanosim.BaselineOptions{TStop: a.TStop, HInit: a.TStep, RecordCurrents: true}
	var res *nanosim.BaselineResult
	var err error
	switch engine {
	case "nr":
		res, err = nanosim.TransientNR(ckt, opt)
	case "mla":
		res, err = nanosim.TransientMLA(ckt, opt)
	case "pwl":
		res, err = nanosim.TransientPWL(ckt, opt)
	default:
		return nil, "", fmt.Errorf("unknown engine %q (want swec, nr, mla or pwl)", engine)
	}
	if err != nil {
		return nil, "", err
	}
	return res.Waves, fmt.Sprintf("steps=%d rejected=%d NR-iters=%d unconverged=%d",
		res.Stats.Steps, res.Stats.Rejected, res.Stats.NRIters, res.Stats.NonConverged), nil
}

// presentNames filters a .print list to the series an analysis actually
// produced: one deck-wide list legitimately mixes time-domain names
// ("v(out)") with frequency-domain ones ("vdb(out)"), and each plot
// should show its own subset instead of erroring on the other
// analysis's names. An empty result means "no filter" (Plot shows all).
func presentNames(set *nanosim.WaveSet, prints []string) []string {
	var out []string
	for _, n := range prints {
		if set.Get(n) != nil {
			out = append(out, n)
		}
	}
	return out
}

// indent prefixes every line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
