// Package pipeline maps a parsed deck onto engine runs, once for every
// surface: which analysis a deck or request means, which engine options
// each card gets (the .options merge and a surface's overrides
// included), and which batch a .mc or .step deck runs. The engine call
// itself is analysis.Run, which vary's trials share.
//
// Surfaces keep their own policy and format. The CLI turns its flags
// into Overrides and prints text; the golden runner overrides nothing
// and resamples; nanosimd turns a SubmitRequest into Overrides, owns
// its job keys, worker defaults and solver checkout, and writes wire
// sections.
package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"nanosim/internal/acan"
	"nanosim/internal/analysis"
	"nanosim/internal/circuit"
	"nanosim/internal/core"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
	"nanosim/internal/sde"
	"nanosim/internal/setsim"
	"nanosim/internal/vary"
)

// kinds lists every single-run analysis once: the deck card kind
// (netparse.Analysis.Kind), the engine kind (analysis.Spec.Analysis),
// nanosimd's name for it ("" where the service does not run it), the
// card as written, and whether its engine stamps single-electron
// elements (islands and tunnel junctions). Only the SET engines do;
// the MNA engines stamp every other element and refuse those.
var kinds = []struct {
	card, spec, wire, label string
	set                     bool
}{
	{"op", "op", "dcop", ".op", false},
	{"dc", "dc", "dc", ".dc", false},
	{"ac", "ac", "ac", ".ac", false},
	{"tran", "tran", "tran", ".tran", false},
	{"em", "em", "em", ".em", false},
	{"settran", "set", "set", ".set tran", true},
	{"setmap", "setmap", "", ".set map", true},
}

// Label returns a deck card kind as the card is written (".set tran").
func Label(card string) string {
	for _, k := range kinds {
		if k.card == card {
			return k.label
		}
	}
	return "." + card
}

// Runnable checks that the engine of a deck card kind can stamp every
// element of the deck: a deck with islands or tunnel junctions runs
// only on the kinds whose engine stamps them.
func (p *Plan) Runnable(card string) error {
	var setLabels []string
	for _, k := range kinds {
		if k.card == card && k.set {
			return nil
		}
		if k.set {
			setLabels = append(setLabels, k.label)
		}
	}
	for _, e := range p.deck.Circuit.Elements() {
		what := ""
		switch e.(type) {
		case *circuit.TunnelJunction:
			what = "tunnel junction"
		case *circuit.Island:
			what = "island"
		default:
			continue
		}
		return fmt.Errorf("cannot run on %s %s: only %s run on islands and tunnel junctions",
			what, e.Name(), strings.Join(setLabels, " and "))
	}
	return nil
}

// Overrides are one surface's changes to what the deck's cards say;
// zero keeps the cards' values. Each surface fills only what it
// accepts.
type Overrides struct {
	// TStop and TStep replace the tran, em (TStop only) and set timing,
	// in single runs and batch jobs alike.
	TStop, TStep float64
	// Seed replaces a single run's seed (.em, .set tran, .set map) and a
	// .mc batch's seed, not a batch job's: trials draw their seeds from
	// the batch.
	Seed *uint64
	// Trials replaces the .mc trial count.
	Trials int
	// Workers bounds a batch's parallelism; 0 keeps the .mc card's
	// WORKERS=, then vary's default.
	Workers int
	// Threads bounds the goroutines of one AC sweep (frequency chunks)
	// and one .set map (grid points); <= 0 keeps the deck's
	// '.options threads='. Transients run on one goroutine.
	Threads int
	// Partition forces the torn-block engine on. GCouple (0 = the
	// deck's) and NoDormancy refine it, whether this or a
	// '.options partition' card enables it.
	Partition  bool
	GCouple    float64
	NoDormancy bool
}

// Plan is a deck under one surface's overrides.
type Plan struct {
	deck    *netparse.Deck
	ovr     Overrides
	popt    *part.Options
	threads int
}

// New merges the deck's .options card with ovr. It fails only on a
// coupling threshold outside (0,1).
func New(deck *netparse.Deck, ovr Overrides) (*Plan, error) {
	p := &Plan{deck: deck, ovr: ovr, threads: max(ovr.Threads, 0)}
	enabled := ovr.Partition
	popt := part.Options{GCouple: ovr.GCouple, NoDormancy: ovr.NoDormancy}
	if o := deck.Options; o != nil {
		enabled = enabled || o.Partition
		if popt.GCouple == 0 {
			popt.GCouple = o.GCouple
		}
		popt.NoDormancy = popt.NoDormancy || o.NoDormancy
		if p.threads == 0 {
			p.threads = o.Threads
		}
	}
	if enabled {
		if popt.GCouple != 0 && (popt.GCouple <= 0 || popt.GCouple >= 1) {
			return nil, fmt.Errorf("partition gcouple %g out of range (want a ratio in (0,1))", popt.GCouple)
		}
		p.popt = &popt
	}
	return p, nil
}

// Partition returns the torn-block engine configuration of the plan's
// transients (nil = monolithic engine).
func (p *Plan) Partition() *part.Options { return p.popt }

// Card maps one analysis card onto its engine run.
func (p *Plan) Card(a netparse.Analysis) analysis.Spec { return p.card(a, p.ovr.Seed) }

// card is Card with the seed override given explicitly.
func (p *Plan) card(a netparse.Analysis, seed *uint64) analysis.Spec {
	if p.ovr.TStop > 0 {
		a.TStop = p.ovr.TStop
	}
	if p.ovr.TStep > 0 {
		a.TStep = p.ovr.TStep
	}
	if seed != nil {
		a.Seed = *seed
	}
	var s analysis.Spec
	for _, k := range kinds {
		if k.card == a.Kind {
			s.Analysis = k.spec
		}
	}
	switch a.Kind {
	case "dc":
		s.DC = analysis.Sweep{Src: a.Src, From: a.From, To: a.To, Points: a.Points, Device: a.Device,
			Options: core.DCOptions{RefineIters: 3}}
	case "ac":
		s.AC = acan.Options{Grid: a.ACGrid, Points: a.Points, FStart: a.From, FStop: a.To, Workers: p.threads}
	case "tran":
		s.Tran = core.Options{TStop: a.TStop, HInit: a.TStep, RecordCurrents: true, Partition: p.popt}
	case "em":
		s.EM = sde.Options{TStop: a.TStop, Steps: a.Steps, Seed: a.Seed, RecordCurrents: true}
	case "settran":
		s.SET = setsim.Options{TStep: a.TStep, TStop: a.TStop, Temp: a.Temp, Seed: a.Seed}
	case "setmap":
		s.Map = setsim.MapOptions{
			Gate: a.Src, GFrom: a.From, GTo: a.To, GPoints: a.Points,
			Drain: a.Src2, DFrom: a.From2, DTo: a.To2, DPoints: a.Points2,
			Temp: a.Temp, Method: a.Method, Window: a.Window, Seed: a.Seed,
			Workers: p.threads}
	}
	return s
}

// first returns the deck's first card of a kind, or nil.
func (p *Plan) first(card string) *netparse.Analysis {
	for i := range p.deck.Analyses {
		if p.deck.Analyses[i].Kind == card {
			return &p.deck.Analyses[i]
		}
	}
	return nil
}

// Kind resolves which analysis a nanosimd request means, in the
// service's names, and checks the deck can run it. An empty request
// means the deck's .mc batch, else its .step sweep, else its first
// card in deck order that the service runs.
func (p *Plan) Kind(requested string) (string, error) {
	kind := strings.ToLower(requested)
	if kind == "op" {
		kind = "dcop"
	}
	if kind == "" {
		var err error
		if kind, err = p.infer(); err != nil {
			return "", err
		}
	}
	if kind == "mc" || kind == "step" {
		_, err := p.batchJob(kind == "mc")
		return kind, err
	}
	for _, k := range kinds {
		if k.wire != kind {
			continue
		}
		switch {
		case kind == "dcop" || p.first(k.card) != nil:
		case kind != "tran" && kind != "em":
			return "", fmt.Errorf("%s job needs a %s card", kind, k.label)
		case p.ovr.TStop <= 0:
			// A card-less tran or em runs on a tstop override alone.
			return "", fmt.Errorf("%s job needs a %s card or a tstop override", kind, k.label)
		}
		if err := p.Runnable(k.card); err != nil {
			return "", fmt.Errorf("%s job %w", kind, err)
		}
		return kind, nil
	}
	return "", fmt.Errorf("unknown analysis %q (want tran, dc, dcop/op, ac, em, set, mc or step)", requested)
}

// infer picks the kind of a request that names none.
func (p *Plan) infer() (string, error) {
	switch {
	case p.deck.MC != nil:
		return "mc", nil
	case len(p.deck.Steps) > 0:
		return "step", nil
	}
	var found []string
	for _, a := range p.deck.Analyses {
		for _, k := range kinds {
			if k.card != a.Kind {
				continue
			}
			if k.wire != "" {
				return k.wire, nil
			}
			if !slices.Contains(found, k.label) {
				found = append(found, k.label)
			}
		}
	}
	if len(found) == 0 {
		return "", errors.New("deck has no analysis cards (.op/.dc/.ac/.tran/.em/.set tran/.mc/.step) and no analysis was requested")
	}
	return "", fmt.Errorf("the service does not run the deck's %s cards; it runs .op, .dc, .ac, .tran, .em, .set tran, .mc and .step",
		strings.Join(found, ", "))
}

// Single maps a kind Kind accepted onto a run of the deck's first card
// of that kind. A card-less tran or em runs on the overrides alone.
func (p *Plan) Single(kind string) analysis.Spec {
	a := netparse.Analysis{}
	for _, k := range kinds {
		if k.wire == kind {
			a.Kind = k.card
		}
	}
	if c := p.first(a.Kind); c != nil {
		a = *c
	}
	return p.Card(a)
}

// batchJob checks that the deck can run its .mc batch (mc) or its
// .step sweep, and picks the job every trial runs: the .mc card's
// analysis keyword for a .mc batch, when given; else the deck's first
// .tran, else .em, else '.set tran', else .op.
func (p *Plan) batchJob(mc bool) (vary.Job, error) {
	keyword := ""
	switch {
	case mc && len(p.deck.Varies) == 0:
		return vary.Job{}, errors.New("mc job needs at least one .vary card")
	case !mc && len(p.deck.Steps) == 0:
		return vary.Job{}, errors.New("step job needs at least one .step card")
	case mc && p.deck.MC != nil:
		keyword = p.deck.MC.Analysis
	}
	card := "op"
	for _, k := range kinds {
		if keyword == k.spec {
			card = k.card
		}
	}
	if keyword == "" {
		for _, k := range []string{"tran", "em", "settran"} {
			if p.first(k) != nil {
				card = k
				break
			}
		}
	}
	a := p.first(card)
	if a == nil {
		if card != "op" {
			return vary.Job{}, fmt.Errorf(".mc %s needs a %s card", keyword, Label(card))
		}
		a = &netparse.Analysis{Kind: card}
	}
	if err := p.Runnable(card); err != nil {
		batch := "step"
		if mc {
			batch = "mc"
		}
		return vary.Job{}, fmt.Errorf("%s job with %s trials %w", batch, Label(card), err)
	}
	// A seed override reseeds the batch; trials draw their own.
	return p.card(*a, nil).Job, nil
}

// MC maps the deck's .mc, .vary, .limit and .print cards onto a Monte
// Carlo batch.
func (p *Plan) MC() (opt vary.Options, err error) {
	if opt.Job, err = p.batchJob(true); err != nil {
		return opt, err
	}
	opt.Signals = append([]string(nil), p.deck.Prints...)
	opt.Workers = p.ovr.Workers
	if mc := p.deck.MC; mc != nil {
		opt.Trials, opt.Seed = mc.Trials, mc.Seed
		if opt.Workers == 0 {
			opt.Workers = mc.Workers
		}
	}
	if p.ovr.Trials > 0 {
		opt.Trials = p.ovr.Trials
	}
	if p.ovr.Seed != nil {
		opt.Seed = *p.ovr.Seed
	}
	for _, v := range p.deck.Varies {
		dist, err := vary.ParseDist(v.Dist)
		if err != nil {
			return opt, fmt.Errorf("netlist line %d: %w", v.Line, err)
		}
		opt.Specs = append(opt.Specs, vary.Spec{
			Elem: v.Elem, Param: v.Param, Dist: dist,
			Sigma: v.Sigma, Rel: v.Rel, Lot: v.Lot,
		})
	}
	for _, l := range p.deck.Limits {
		opt.Limits = append(opt.Limits, vary.Limit{Signal: l.Signal, Stat: l.Stat, Lo: l.Lo, Hi: l.Hi})
	}
	return opt, nil
}

// Step maps the deck's .step and .print cards onto a parameter sweep.
func (p *Plan) Step() (opt vary.SweepOptions, err error) {
	if opt.Job, err = p.batchJob(false); err != nil {
		return opt, err
	}
	opt.Signals = append([]string(nil), p.deck.Prints...)
	opt.Workers = p.ovr.Workers
	for _, s := range p.deck.Steps {
		opt.Axes = append(opt.Axes, vary.SweepAxis{
			Elem: s.Elem, Param: s.Param, From: s.From, To: s.To, Points: s.Points, Log: s.Log,
		})
	}
	return opt, nil
}
