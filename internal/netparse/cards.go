package netparse

import (
	"math"
	"strconv"
	"strings"

	"nanosim/internal/randx"
	"nanosim/internal/units"
)

// parseElemParam splits "N1(A)" into ("N1", "A"); a bare name selects
// the element's principal value.
func parseElemParam(s string, line int) (elem, param string, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return s, "", nil
	}
	if !strings.HasSuffix(s, ")") || open == 0 {
		return "", "", errf(line, "bad parameter reference %q (want elem or elem(PARAM))", s)
	}
	return s[:open], strings.ToUpper(s[open+1 : len(s)-1]), nil
}

// parseTol reads a tolerance value: "5%" is relative (0.05 of nominal),
// a plain SPICE value is absolute.
func parseTol(s string, line int) (sigma float64, rel bool, err error) {
	if strings.HasSuffix(s, "%") {
		v, err := units.Parse(strings.TrimSuffix(s, "%"))
		if err != nil {
			return 0, false, errf(line, "bad tolerance %q: %v", s, err)
		}
		return v / 100, true, nil
	}
	v, err := units.Parse(s)
	if err != nil {
		return 0, false, errf(line, "bad tolerance %q: %v", s, err)
	}
	return v, false, nil
}

// parseStep reads ".step elem[(PARAM)] from to points [LOG]".
func parseStep(fields []string, line int) (StepCard, error) {
	if len(fields) < 5 {
		return StepCard{}, errf(line, ".step needs: elem[(PARAM)] from to points [LOG]")
	}
	elem, param, err := parseElemParam(fields[1], line)
	if err != nil {
		return StepCard{}, err
	}
	from, err1 := units.Parse(fields[2])
	to, err2 := units.Parse(fields[3])
	pts, err3 := units.Parse(fields[4])
	if err1 != nil || err2 != nil || err3 != nil || pts < 1 {
		return StepCard{}, errf(line, "bad .step numbers %q %q %q", fields[2], fields[3], fields[4])
	}
	card := StepCard{Elem: elem, Param: param, From: from, To: to, Points: int(pts), Line: line}
	for _, f := range fields[5:] {
		switch strings.ToUpper(f) {
		case "LOG", "DEC":
			card.Log = true
		case "LIN":
			card.Log = false
		default:
			return StepCard{}, errf(line, "unknown .step keyword %q", f)
		}
	}
	return card, nil
}

// parseAC reads ".ac dec|oct|lin points fstart fstop".
func parseAC(fields []string, line int) (Analysis, error) {
	if len(fields) < 5 {
		return Analysis{}, errf(line, ".ac needs: dec|oct|lin points fstart fstop")
	}
	grid := strings.ToLower(fields[1])
	switch grid {
	case "dec", "oct", "lin":
	default:
		return Analysis{}, errf(line, "bad .ac grid %q (want dec, oct or lin)", fields[1])
	}
	pts, err := units.Parse(fields[2])
	if err != nil || pts < 1 {
		return Analysis{}, errf(line, "bad .ac point count %q", fields[2])
	}
	fstart, err1 := units.Parse(fields[3])
	fstop, err2 := units.Parse(fields[4])
	if err1 != nil || err2 != nil {
		return Analysis{}, errf(line, "bad .ac frequency bounds %q %q", fields[3], fields[4])
	}
	if fstart <= 0 || fstop <= 0 {
		return Analysis{}, errf(line, ".ac frequencies must be > 0, got %g and %g", fstart, fstop)
	}
	if fstop < fstart {
		return Analysis{}, errf(line, ".ac fstop %g below fstart %g", fstop, fstart)
	}
	return Analysis{Kind: "ac", ACGrid: grid, Points: int(pts), From: fstart, To: fstop}, nil
}

// islandCard is a parsed .island directive: it marks an existing node
// as a single-electron island.
type islandCard struct {
	node   string
	q0, c0 float64
	line   int
}

// parseIsland reads ".island node [Q0=frac] [C0=farads]".
func parseIsland(fields []string, line int) (islandCard, error) {
	if len(fields) < 2 {
		return islandCard{}, errf(line, ".island needs: node [Q0=frac] [C0=farads]")
	}
	card := islandCard{node: fields[1], line: line}
	p, err := parseParams(fields[2:], line)
	if err != nil {
		return islandCard{}, err
	}
	for k, v := range p {
		switch k {
		case "Q0":
			card.q0 = v
		case "C0":
			card.c0 = v
		default:
			return islandCard{}, errf(line, "unknown .island parameter %q", k)
		}
	}
	return card, nil
}

// parseSet reads the single-electron analysis directives:
//
//	.set tran tstep tstop [TEMP=k] [SEED=n]
//	.set map gate gfrom gto gpoints drain dfrom dto dpoints
//	         [TEMP=k] [SEED=n] [WINDOW=s] [METHOD=me|kmc]
func parseSet(fields []string, line int) (Analysis, error) {
	if len(fields) < 2 {
		return Analysis{}, errf(line, ".set needs a mode: tran or map")
	}
	mode := strings.ToLower(fields[1])
	switch mode {
	case "tran":
		if len(fields) < 4 {
			return Analysis{}, errf(line, ".set tran needs: tstep tstop [TEMP=] [SEED=]")
		}
		tstep, err1 := units.Parse(fields[2])
		tstop, err2 := units.Parse(fields[3])
		if err1 != nil || err2 != nil || tstep <= 0 || tstop <= 0 {
			return Analysis{}, errf(line, "bad .set tran times %q %q", fields[2], fields[3])
		}
		a := Analysis{Kind: "settran", TStep: tstep, TStop: tstop}
		if err := parseSetKeywords(&a, fields[4:], line); err != nil {
			return Analysis{}, err
		}
		return a, nil
	case "map":
		if len(fields) < 10 {
			return Analysis{}, errf(line, ".set map needs: gate gfrom gto gpoints drain dfrom dto dpoints")
		}
		gFrom, err1 := units.Parse(fields[3])
		gTo, err2 := units.Parse(fields[4])
		gPts, err3 := units.Parse(fields[5])
		dFrom, err4 := units.Parse(fields[7])
		dTo, err5 := units.Parse(fields[8])
		dPts, err6 := units.Parse(fields[9])
		for _, err := range []error{err1, err2, err3, err4, err5, err6} {
			if err != nil {
				return Analysis{}, errf(line, "bad .set map numbers: %v", err)
			}
		}
		a := Analysis{
			Kind: "setmap",
			Src:  fields[2], From: gFrom, To: gTo, Points: int(gPts),
			Src2: fields[6], From2: dFrom, To2: dTo, Points2: int(dPts),
		}
		if a.Points < 2 {
			return Analysis{}, errf(line, ".set map gate axis needs >= 2 points")
		}
		if a.Points2 < 1 {
			return Analysis{}, errf(line, ".set map drain axis needs >= 1 point")
		}
		if err := parseSetKeywords(&a, fields[10:], line); err != nil {
			return Analysis{}, err
		}
		return a, nil
	default:
		return Analysis{}, errf(line, "unknown .set mode %q (want tran or map)", fields[1])
	}
}

// parseSetKeywords reads the trailing NAME=value options shared by the
// .set modes.
func parseSetKeywords(a *Analysis, fields []string, line int) error {
	for _, f := range fields {
		up := strings.ToUpper(f)
		switch {
		case strings.HasPrefix(up, "TEMP="):
			v, err := units.Parse(f[len("TEMP="):])
			if err != nil {
				return errf(line, "bad TEMP %q: %v", f, err)
			}
			a.Temp = v
		case strings.HasPrefix(up, "SEED="):
			v, err := strconv.ParseUint(f[len("SEED="):], 10, 64)
			if err != nil {
				return errf(line, "bad SEED %q (want a decimal uint64)", f)
			}
			a.Seed = v
		case strings.HasPrefix(up, "WINDOW="):
			v, err := units.Parse(f[len("WINDOW="):])
			if err != nil || v <= 0 {
				return errf(line, "bad WINDOW %q (want seconds > 0)", f)
			}
			a.Window = v
		case strings.HasPrefix(up, "METHOD="):
			m := strings.ToLower(f[len("METHOD="):])
			if m != "me" && m != "kmc" {
				return errf(line, "bad METHOD %q (want me or kmc)", f)
			}
			a.Method = m
		default:
			return errf(line, "unknown .set keyword %q", f)
		}
	}
	return nil
}

// parseMC reads ".mc trials [tran|op|em|set] [SEED=n] [WORKERS=n]".
func parseMC(fields []string, line int) (MCCard, error) {
	if len(fields) < 2 {
		return MCCard{}, errf(line, ".mc needs a trial count")
	}
	trials, err := units.Parse(fields[1])
	if err != nil || trials < 1 {
		return MCCard{}, errf(line, "bad .mc trial count %q", fields[1])
	}
	card := MCCard{Trials: int(trials), Line: line}
	for _, f := range fields[2:] {
		up := strings.ToUpper(f)
		switch {
		case up == "TRAN" || up == "OP" || up == "EM" || up == "SET":
			card.Analysis = strings.ToLower(up)
		case strings.HasPrefix(up, "SEED="):
			// Seeds are exact 64-bit identities, not engineering values:
			// a float round trip would silently corrupt negative or
			// > 2^53 seeds and break the reproducibility contract.
			v, err := strconv.ParseUint(f[len("SEED="):], 10, 64)
			if err != nil {
				return MCCard{}, errf(line, "bad SEED %q (want a decimal uint64)", f)
			}
			card.Seed = v
		case strings.HasPrefix(up, "WORKERS="):
			v, err := strconv.Atoi(f[len("WORKERS="):])
			if err != nil || v < 0 {
				return MCCard{}, errf(line, "bad WORKERS %q", f)
			}
			card.Workers = v
		default:
			return MCCard{}, errf(line, "unknown .mc keyword %q", f)
		}
	}
	return card, nil
}

// parseVary reads ".vary elem[(PARAM)] DEV=tol|LOT=tol [DIST=name]".
func parseVary(fields []string, line int) (VaryCard, error) {
	if len(fields) < 3 {
		return VaryCard{}, errf(line, ".vary needs: elem[(PARAM)] DEV=tol|LOT=tol [DIST=name]")
	}
	elem, param, err := parseElemParam(fields[1], line)
	if err != nil {
		return VaryCard{}, err
	}
	card := VaryCard{Elem: elem, Param: param, Line: line}
	haveTol := false
	for _, f := range fields[2:] {
		up := strings.ToUpper(f)
		switch {
		case strings.HasPrefix(up, "DEV=") || strings.HasPrefix(up, "LOT="):
			if haveTol {
				return VaryCard{}, errf(line, ".vary takes exactly one DEV= or LOT= tolerance")
			}
			sigma, rel, err := parseTol(f[len("DEV="):], line)
			if err != nil {
				return VaryCard{}, err
			}
			if sigma < 0 {
				return VaryCard{}, errf(line, "negative tolerance in %q", f)
			}
			card.Sigma, card.Rel, card.Lot = sigma, rel, strings.HasPrefix(up, "LOT=")
			haveTol = true
		case strings.HasPrefix(up, "DIST="):
			card.Dist = up[len("DIST="):]
			if _, err := randx.ParseDist(card.Dist); err != nil {
				return VaryCard{}, errf(line, ".vary %v", err)
			}
		default:
			return VaryCard{}, errf(line, "unknown .vary keyword %q", f)
		}
	}
	if !haveTol {
		return VaryCard{}, errf(line, ".vary needs a DEV= or LOT= tolerance")
	}
	return card, nil
}

// parseOptions reads ".options [partition] [gcouple=x] [nodormancy]
// [threads=n]". Multiple .options cards accumulate into one record
// (SPICE style).
func parseOptions(fields []string, line int, prev *OptionsCard) (*OptionsCard, error) {
	card := &OptionsCard{Line: line}
	if prev != nil {
		*card = *prev
		card.Line = line
	}
	if len(fields) < 2 {
		return nil, errf(line, ".options needs at least one keyword (partition, gcouple=, nodormancy, threads=)")
	}
	for _, f := range fields[1:] {
		up := strings.ToUpper(f)
		switch {
		case up == "PARTITION":
			card.Partition = true
		case strings.HasPrefix(up, "GCOUPLE="):
			v, err := units.Parse(f[len("GCOUPLE="):])
			if err != nil || v <= 0 || v >= 1 {
				return nil, errf(line, "bad GCOUPLE %q (want a ratio in (0,1))", f)
			}
			card.GCouple = v
		case up == "NODORMANCY":
			card.NoDormancy = true
		case strings.HasPrefix(up, "THREADS="):
			v, err := strconv.Atoi(f[len("THREADS="):])
			if err != nil || v < 0 {
				return nil, errf(line, "bad THREADS %q (want an integer >= 0)", f)
			}
			card.Threads = v
		default:
			return nil, errf(line, "unknown .options keyword %q", f)
		}
	}
	return card, nil
}

// parseLimit reads ".limit signal stat lo hi" where lo/hi accept '*'
// for an unbounded side.
func parseLimit(fields []string, line int) (LimitCard, error) {
	if len(fields) < 5 {
		return LimitCard{}, errf(line, ".limit needs: signal final|min|max lo hi")
	}
	card := LimitCard{Signal: fields[1], Stat: strings.ToLower(fields[2]), Line: line}
	switch card.Stat {
	case "final", "min", "max":
	default:
		return LimitCard{}, errf(line, "bad .limit stat %q (want final, min or max)", fields[2])
	}
	bound := func(s string, side float64) (float64, error) {
		if s == "*" {
			return side, nil
		}
		v, err := units.Parse(s)
		if err != nil {
			return 0, errf(line, "bad .limit bound %q: %v", s, err)
		}
		return v, nil
	}
	var err error
	if card.Lo, err = bound(fields[3], math.Inf(-1)); err != nil {
		return LimitCard{}, err
	}
	if card.Hi, err = bound(fields[4], math.Inf(1)); err != nil {
		return LimitCard{}, err
	}
	if card.Hi < card.Lo {
		return LimitCard{}, errf(line, ".limit bounds out of order: %g > %g", card.Lo, card.Hi)
	}
	return card, nil
}
