package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nanosim/internal/analysis"
	"nanosim/internal/netparse"
	"nanosim/internal/pipeline"
)

// goldenSchema versions the reference-waveform files.
const goldenSchema = "nanosim/golden/v1"

// goldenPoints is the fixed resampling grid: comparisons are
// step-sequence independent because both sides interpolate onto it.
const goldenPoints = 201

// GoldenSignal is one recorded reference waveform.
type GoldenSignal struct {
	T []float64 `json:"t"`
	V []float64 `json:"v"`
}

// GoldenAnalysis is one deck analysis card's recorded output.
type GoldenAnalysis struct {
	Kind    string                  `json:"kind"`
	Signals map[string]GoldenSignal `json:"signals"`
}

// GoldenFile is the committed reference record of one deck.
type GoldenFile struct {
	Schema   string           `json:"schema"`
	Deck     string           `json:"deck"`
	Analyses []GoldenAnalysis `json:"analyses"`
}

// runGolden implements `nanobench -golden record|check`: the golden-deck
// regression gate. record writes reference waveforms for every
// deterministic analysis of every deck under deckDir; check re-runs them
// and fails on per-wave drift beyond tol (relative to each golden
// signal's value range), so engine refactors cannot silently change
// numerics.
func runGolden(mode, deckDir, goldenDir string, tol float64) error {
	switch mode {
	case "record", "check":
	default:
		return fmt.Errorf("-golden %q: want record or check", mode)
	}
	if tol <= 0 {
		return fmt.Errorf("-golden-tol %g: want > 0", tol)
	}
	decks, err := filepath.Glob(filepath.Join(deckDir, "*.sp"))
	if err != nil {
		return err
	}
	if len(decks) == 0 {
		return fmt.Errorf("no decks under %s", deckDir)
	}
	sort.Strings(decks)
	failed := 0
	for _, deck := range decks {
		g, err := goldenRun(deck)
		if err != nil {
			return fmt.Errorf("%s: %w", deck, err)
		}
		path := filepath.Join(goldenDir, strings.TrimSuffix(filepath.Base(deck), ".sp")+".golden.json")
		if mode == "record" {
			if err := writeGolden(path, g); err != nil {
				return err
			}
			fmt.Printf("golden: recorded %s (%d analyses)\n", path, len(g.Analyses))
			continue
		}
		ref, err := readGolden(path)
		if err != nil {
			return fmt.Errorf("%s (run `nanobench -golden record` after intentional changes): %w", deck, err)
		}
		if n := compareGolden(deck, ref, g, tol); n > 0 {
			failed += n
		}
	}
	if failed > 0 {
		return fmt.Errorf("golden check: %d signal(s) drifted beyond tol=%g (rerun `nanobench -golden record` only if the change is intentional)", failed, tol)
	}
	if mode == "check" {
		fmt.Printf("golden check: %d decks match within tol=%g\n", len(decks), tol)
	}
	return nil
}

// goldenRun executes every deterministic analysis card of a deck and
// resamples the outputs onto the fixed grid. Batch cards (.mc/.step) are
// skipped: their aggregates are covered by the vary smoke, and the
// deck's plain analysis cards are what the engines' numerics show up in.
func goldenRun(path string) (*GoldenFile, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	deck, err := netparse.Parse(string(src))
	if err != nil {
		return nil, err
	}
	plan, err := pipeline.New(deck, pipeline.Overrides{})
	if err != nil {
		return nil, err
	}
	g := &GoldenFile{Schema: goldenSchema, Deck: filepath.Base(path)}
	for _, a := range deck.Analyses {
		out, err := analysis.Run(deck.Circuit, plan.Card(a))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pipeline.Label(a.Kind), err)
		}
		waves := out.Waves
		ga := GoldenAnalysis{Kind: a.Kind, Signals: map[string]GoldenSignal{}}
		for _, name := range waves.Names() {
			s := waves.Get(name)
			if s.Len() >= 2 {
				rs, err := s.Resample(goldenPoints)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", a.Kind, name, err)
				}
				s = rs
			}
			ga.Signals[name] = GoldenSignal{T: s.T, V: s.V}
		}
		g.Analyses = append(g.Analyses, ga)
	}
	if len(g.Analyses) == 0 {
		return nil, fmt.Errorf("deck has no deterministic analysis cards to record")
	}
	return g, nil
}

// compareGolden reports the number of drifted signals, printing each.
func compareGolden(deck string, ref, got *GoldenFile, tol float64) int {
	if len(ref.Analyses) != len(got.Analyses) {
		fmt.Printf("golden DRIFT %s: %d analyses recorded, %d produced\n", deck, len(ref.Analyses), len(got.Analyses))
		return 1
	}
	failed := 0
	for i, ra := range ref.Analyses {
		ga := got.Analyses[i]
		if ra.Kind != ga.Kind {
			fmt.Printf("golden DRIFT %s: analysis %d is %s, recorded %s\n", deck, i, ga.Kind, ra.Kind)
			failed++
			continue
		}
		names := make([]string, 0, len(ra.Signals))
		for name := range ra.Signals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rs := ra.Signals[name]
			gs, ok := ga.Signals[name]
			if !ok {
				fmt.Printf("golden DRIFT %s [%s]: signal %s missing\n", deck, ra.Kind, name)
				failed++
				continue
			}
			if dev, at, ok := signalDeviation(rs, gs, tol); !ok {
				fmt.Printf("golden DRIFT %s [%s] %s: deviation %.3g at t=%g exceeds tol\n",
					deck, ra.Kind, name, dev, at)
				failed++
			}
		}
		for name := range ga.Signals {
			if _, ok := ra.Signals[name]; !ok {
				fmt.Printf("golden DRIFT %s [%s]: new signal %s not in the record\n", deck, ra.Kind, name)
				failed++
			}
		}
	}
	return failed
}

// signalDeviation compares one signal against its record with a
// tolerance relative to the recorded value range (floored so flat
// near-zero signals don't demand absolute exactness).
func signalDeviation(ref, got GoldenSignal, tol float64) (worst, at float64, ok bool) {
	if len(ref.V) != len(got.V) {
		return math.Inf(1), 0, false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range ref.V {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	span := hi - lo
	if span < 1e-12 {
		span = 1e-12
	}
	limit := tol * span
	ok = true
	for i := range ref.V {
		if d := math.Abs(ref.V[i] - got.V[i]); d > worst {
			worst, at = d, ref.T[i]
		}
	}
	if worst > limit {
		ok = false
	}
	return worst, at, ok
}

// writeGolden marshals g with stable formatting.
func writeGolden(path string, g *GoldenFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readGolden loads and validates a reference record.
func readGolden(path string) (*GoldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g GoldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Schema != goldenSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, g.Schema, goldenSchema)
	}
	return &g, nil
}
