package netparse

import (
	"fmt"
	"strings"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/units"
)

// Analysis is one directive from the deck.
type Analysis struct {
	// Kind is "tran", "dc", "op", "ac", "em", "settran" or "setmap".
	Kind string
	// TStep and TStop configure tran/em/settran.
	TStep, TStop float64
	// Steps is the em grid size.
	Steps int
	// Seed is the em noise / single-electron kMC seed.
	Seed uint64
	// Src, From, To, Points, Device configure dc sweeps; ac reuses From,
	// To and Points for fstart, fstop and the grid density; setmap uses
	// Src/From/To/Points for the gate axis.
	Src    string
	From   float64
	To     float64
	Points int
	Device string
	// ACGrid is the .ac spacing keyword: "dec", "oct" or "lin".
	ACGrid string
	// Src2, From2, To2, Points2 are the setmap drain axis.
	Src2    string
	From2   float64
	To2     float64
	Points2 int
	// Temp is the single-electron bath temperature in kelvin (0 keeps
	// the engine default, negative means exactly 0 K).
	Temp float64
	// Window is the setmap per-point kMC averaging window in seconds.
	Window float64
	// Method is the setmap point solver: "", "me" or "kmc".
	Method string
}

// MCCard is a parsed .mc directive: a process-variation Monte Carlo
// over the deck's .vary specs.
type MCCard struct {
	// Trials is the batch size.
	Trials int
	// Analysis selects the per-trial engine: "tran", "op", "em" or
	// "set" (single-electron kMC);
	// "" lets the runner default (tran when the deck has one, else op).
	Analysis string
	// Seed drives the parameter draws.
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Line is the source line for diagnostics.
	Line int
}

// StepCard is one parsed .step axis of a deterministic parameter sweep.
type StepCard struct {
	// Elem and Param select the swept parameter ("" = principal value).
	Elem, Param string
	// From and To bound the grid, Points sizes it, Log spaces it
	// geometrically.
	From, To float64
	Points   int
	Log      bool
	// Line is the source line for diagnostics.
	Line int
}

// VaryCard is one parsed .vary spec.
type VaryCard struct {
	// Elem (exact name or trailing-'*' prefix pattern) and Param select
	// the varied parameter.
	Elem, Param string
	// Sigma is the tolerance; Rel marks a '%' (relative) tolerance.
	Sigma float64
	Rel   bool
	// Lot selects one shared draw across matches (LOT=) instead of
	// independent per-element draws (DEV=).
	Lot bool
	// Dist is the DIST= keyword as written, upper-cased: "" or a name
	// randx.ParseDist accepts (the parser rejects any other).
	Dist string
	// Line is the source line for diagnostics.
	Line int
}

// OptionsCard is a parsed .options directive (engine tuning knobs).
type OptionsCard struct {
	// Partition enables the torn-block SWEC engine for transients.
	Partition bool
	// GCouple overrides the partitioner's relative coupling threshold
	// (0 keeps the engine default).
	GCouple float64
	// NoDormancy keeps every block solving every step.
	NoDormancy bool
	// Threads bounds the goroutines of an AC sweep (frequency chunks)
	// and a .set map (grid points); 0 keeps the engine default.
	// Transients run on one goroutine. Results are bit-identical at any
	// value.
	Threads int
	// Line is the source line for diagnostics.
	Line int
}

// LimitCard is one parsed .limit yield spec.
type LimitCard struct {
	// Signal names the measured series ("v(out)").
	Signal string
	// Stat is "final", "min" or "max".
	Stat string
	// Lo and Hi bound the acceptable range (±Inf for '*').
	Lo, Hi float64
	// Line is the source line for diagnostics.
	Line int
}

// Deck is a parsed netlist.
type Deck struct {
	// Circuit is the netlist graph.
	Circuit *circuit.Circuit
	// Analyses lists the directives in deck order.
	Analyses []Analysis
	// Prints lists requested output signals ("v(out)", "i(V1)");
	// empty means all node voltages.
	Prints []string
	// MC holds the .mc directive, nil when absent.
	MC *MCCard
	// Steps lists the .step sweep axes in deck order (their cartesian
	// product is the sweep grid, last card fastest).
	Steps []StepCard
	// Varies lists the .vary specs in deck order.
	Varies []VaryCard
	// Limits lists the .limit yield specs.
	Limits []LimitCard
	// Options holds the .options directive, nil when absent.
	Options *OptionsCard
	// ModelSetHash is a stable content hash of the deck's .model cards
	// (sorted names, kind, sorted parameter values). Joined with a
	// subcircuit master's content hash (circuit.Master.Hash) it keys
	// the serve-side master-template cache: a master expands to the
	// same compiled block in any two decks whose master hash AND model
	// set hash agree, even when the decks differ elsewhere.
	ModelSetHash string
}

// ParseError carries the offending line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error renders "netlist line N: msg".
func (e *ParseError) Error() string { return fmt.Sprintf("netlist line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// modelCard is a deferred .model definition.
type modelCard struct {
	kind   string
	params map[string]float64
	line   int
}

// modelTable holds the deck's .model cards plus an intern cache of
// built two-terminal models. Every element line referencing the same
// card shares ONE model instance: device models are immutable after
// construction (I/G are pure, parameters only change via constructors),
// and mutation paths (vary/mc trials) run on circuit.Clone, which
// deep-copies models per element. Interning makes pointer equality a
// fast-path for content comparisons downstream — the partitioner's
// conductance probes and the hierarchical compiler's congruence checks
// on million-element decks.
type modelTable struct {
	cards map[string]modelCard
	iv    map[string]device.IV
}

// Parse reads a netlist.
func Parse(src string) (*Deck, error) {
	lines := logicalLines(src)
	if len(lines) == 0 {
		return nil, fmt.Errorf("netparse: empty netlist")
	}
	deck := &Deck{}
	// The first line is always the title, by SPICE convention (titles
	// like "inverter cell" would otherwise parse as elements). A deck
	// may start directly with a dot-card instead.
	title := ""
	start := 0
	if !strings.HasPrefix(strings.TrimSpace(lines[0].text), ".") {
		title = strings.TrimPrefix(strings.TrimSpace(lines[0].text), "*")
		start = 1
	}
	deck.Circuit = circuit.New(strings.TrimSpace(title))

	models := &modelTable{cards: map[string]modelCard{}, iv: map[string]device.IV{}}
	subckts := map[string]*subcktDef{}
	var openSub *subcktDef
	type pending struct {
		fields []string
		line   int
	}
	var elements []pending
	var islands []islandCard

	for _, ln := range lines[start:] {
		text := strings.TrimSpace(ln.text)
		if text == "" || strings.HasPrefix(text, "*") {
			continue
		}
		fields := tokenize(text)
		if len(fields) == 0 {
			continue
		}
		head := strings.ToLower(fields[0])
		// Inside a .subckt body, collect everything except .ends.
		if openSub != nil && head != ".ends" {
			if head == ".subckt" {
				return nil, errf(ln.num, "nested .subckt definitions are not supported")
			}
			openSub.body = append(openSub.body, bodyLine{fields: fields, num: ln.num})
			continue
		}
		switch {
		case head == ".subckt":
			if len(fields) < 3 {
				return nil, errf(ln.num, ".subckt needs a name and at least one port")
			}
			openSub = &subcktDef{name: strings.ToLower(fields[1]), ports: fields[2:], line: ln.num}
		case head == ".ends":
			if openSub == nil {
				return nil, errf(ln.num, ".ends without .subckt")
			}
			subckts[openSub.name] = openSub
			openSub = nil
		case head == ".end":
			goto done
		case head == ".model":
			if len(fields) < 3 {
				return nil, errf(ln.num, ".model needs a name and a kind")
			}
			name := strings.ToLower(fields[1])
			kind := strings.ToUpper(fields[2])
			params, err := parseParams(fields[3:], ln.num)
			if err != nil {
				return nil, err
			}
			models.cards[name] = modelCard{kind: kind, params: params, line: ln.num}
		case head == ".tran":
			if len(fields) < 3 {
				return nil, errf(ln.num, ".tran needs tstep and tstop")
			}
			tstep, err := units.Parse(fields[1])
			if err != nil {
				return nil, errf(ln.num, "bad tstep: %v", err)
			}
			tstop, err := units.Parse(fields[2])
			if err != nil {
				return nil, errf(ln.num, "bad tstop: %v", err)
			}
			deck.Analyses = append(deck.Analyses, Analysis{Kind: "tran", TStep: tstep, TStop: tstop})
		case head == ".dc":
			if len(fields) < 5 {
				return nil, errf(ln.num, ".dc needs: source from to points [device]")
			}
			from, err1 := units.Parse(fields[2])
			to, err2 := units.Parse(fields[3])
			pts, err3 := units.Parse(fields[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, errf(ln.num, "bad .dc numbers")
			}
			a := Analysis{Kind: "dc", Src: fields[1], From: from, To: to, Points: int(pts)}
			if len(fields) > 5 {
				a.Device = fields[5]
			}
			deck.Analyses = append(deck.Analyses, a)
		case head == ".op":
			deck.Analyses = append(deck.Analyses, Analysis{Kind: "op"})
		case head == ".ac":
			a, err := parseAC(fields, ln.num)
			if err != nil {
				return nil, err
			}
			deck.Analyses = append(deck.Analyses, a)
		case head == ".em":
			if len(fields) < 3 {
				return nil, errf(ln.num, ".em needs tstop and steps")
			}
			tstop, err := units.Parse(fields[1])
			if err != nil {
				return nil, errf(ln.num, "bad .em tstop: %v", err)
			}
			steps, err := units.Parse(fields[2])
			if err != nil {
				return nil, errf(ln.num, "bad .em steps: %v", err)
			}
			a := Analysis{Kind: "em", TStop: tstop, Steps: int(steps)}
			if p, err := parseParams(fields[3:], ln.num); err == nil {
				if s, ok := p["SEED"]; ok {
					a.Seed = uint64(s)
				}
			} else {
				return nil, err
			}
			deck.Analyses = append(deck.Analyses, a)
		case head == ".island":
			card, err := parseIsland(fields, ln.num)
			if err != nil {
				return nil, err
			}
			islands = append(islands, card)
		case head == ".set":
			a, err := parseSet(fields, ln.num)
			if err != nil {
				return nil, err
			}
			deck.Analyses = append(deck.Analyses, a)
		case head == ".step":
			card, err := parseStep(fields, ln.num)
			if err != nil {
				return nil, err
			}
			deck.Steps = append(deck.Steps, card)
		case head == ".mc":
			if deck.MC != nil {
				return nil, errf(ln.num, "duplicate .mc card (first on line %d)", deck.MC.Line)
			}
			card, err := parseMC(fields, ln.num)
			if err != nil {
				return nil, err
			}
			deck.MC = &card
		case head == ".vary":
			card, err := parseVary(fields, ln.num)
			if err != nil {
				return nil, err
			}
			deck.Varies = append(deck.Varies, card)
		case head == ".limit":
			card, err := parseLimit(fields, ln.num)
			if err != nil {
				return nil, err
			}
			deck.Limits = append(deck.Limits, card)
		case head == ".options" || head == ".option":
			card, err := parseOptions(fields, ln.num, deck.Options)
			if err != nil {
				return nil, err
			}
			deck.Options = card
		case head == ".print":
			deck.Prints = append(deck.Prints, fields[1:]...)
		case strings.HasPrefix(head, "."):
			return nil, errf(ln.num, "unsupported card %q", fields[0])
		default:
			elements = append(elements, pending{fields: fields, line: ln.num})
		}
	}
done:
	if openSub != nil {
		return nil, errf(openSub.line, ".subckt %s is missing .ends", openSub.name)
	}
	if len(subckts) > 0 {
		deck.Circuit.Hier = buildHierarchy(subckts)
	}
	// Node names referenced at top level, checked against the internal
	// node names expansion creates (collision = parse error, satellite of
	// the hierarchy refactor; see expander.topNodes).
	topNodes := map[string]int{}
	for _, el := range elements {
		lo, hi := nodeFieldRange(el.fields)
		for i := lo; i < hi && i < len(el.fields); i++ {
			f := el.fields[i]
			if strings.ContainsRune(f, '=') {
				continue // NAME=value parameter, not a node
			}
			if _, seen := topNodes[f]; !seen {
				topNodes[f] = el.line
			}
		}
	}
	ex := &expander{c: deck.Circuit, models: models, subckts: subckts, hier: deck.Circuit.Hier, topNodes: topNodes,
		sizes: make(map[string]masterSize, len(subckts))}
	// Reserve the flat circuit's storage for the expanded size up front,
	// so a deck of many instances never regrows its element and node
	// tables.
	elems, nodes := 0, len(topNodes)
	for _, el := range elements {
		if !isInstanceCard(el.fields[0]) {
			elems++
			continue
		}
		if len(el.fields) >= 3 {
			s := ex.sizeOf(strings.ToLower(el.fields[len(el.fields)-1]))
			elems, nodes = min(elems+s.elems, maxReserve), min(nodes+s.nodes, maxReserve)
		}
	}
	deck.Circuit.Reserve(elems, nodes)
	for _, el := range elements {
		if isInstanceCard(el.fields[0]) {
			if err := ex.expand(el.fields, el.line, -1, 0, nil); err != nil {
				return nil, err
			}
			continue
		}
		if err := addElement(deck.Circuit, el.fields, el.line, models); err != nil {
			return nil, err
		}
	}
	// Islands attach after the elements so the marked node already
	// exists by name regardless of card order.
	for _, card := range islands {
		if _, err := deck.Circuit.AddIsland("ISL_"+card.node, card.node, card.q0, card.c0); err != nil {
			return nil, wrap(err, card.line)
		}
	}
	if err := deck.Circuit.Validate(); err != nil {
		return nil, fmt.Errorf("netparse: %w", err)
	}
	deck.ModelSetHash = modelSetHash(models.cards)
	return deck, nil
}

type numbered struct {
	text string
	num  int
}

// logicalLines joins "+" continuations and strips ";" comments.
func logicalLines(src string) []numbered {
	raw := strings.Split(src, "\n")
	var out []numbered
	for i, l := range raw {
		if idx := strings.IndexByte(l, ';'); idx >= 0 {
			l = l[:idx]
		}
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "+") && len(out) > 0 {
			out[len(out)-1].text += " " + strings.TrimPrefix(t, "+")
			continue
		}
		out = append(out, numbered{text: l, num: i + 1})
	}
	var res []numbered
	for _, l := range out {
		if strings.TrimSpace(l.text) != "" {
			res = append(res, l)
		}
	}
	return res
}

// tokenize splits fields but keeps source functions "PULSE(...)" as one
// token group: "PULSE(0 1 2n)" -> ["PULSE(0", "1", "2n)"] would be
// useless, so parentheses contents are folded into the function token
// separated by commas.
func tokenize(s string) []string {
	s = strings.ReplaceAll(s, "=", " = ")
	var out []string
	depth := 0
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			cur.WriteRune(r)
		case (r == ' ' || r == '\t') && depth == 0:
			flush()
		case (r == ' ' || r == '\t') && depth > 0:
			cur.WriteRune(',')
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	// Re-join "NAME = VALUE" triplets into NAME=VALUE.
	var merged []string
	for i := 0; i < len(out); i++ {
		if out[i] == "=" && len(merged) > 0 && i+1 < len(out) {
			merged[len(merged)-1] += "=" + out[i+1]
			i++
			continue
		}
		merged = append(merged, out[i])
	}
	return merged
}

// parseParams reads NAME=value fields.
func parseParams(fields []string, line int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq < 0 {
			return nil, errf(line, "expected NAME=value, got %q", f)
		}
		v, err := units.Parse(f[eq+1:])
		if err != nil {
			return nil, errf(line, "bad value in %q: %v", f, err)
		}
		out[strings.ToUpper(f[:eq])] = v
	}
	return out, nil
}
