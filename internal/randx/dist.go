package randx

import (
	"fmt"
	"strings"
)

// Dist names a sampling distribution of a standardized variate, as the
// netlist .vary DIST= keyword spells it. This is the one list of
// accepted spellings: the netlist parser validates DIST= against it and
// the variation engine reads it through vary.ParseDist.
type Dist int

// Supported distributions.
const (
	// Gauss draws N(0,1), applied additively.
	Gauss Dist = iota
	// Uniform draws U(-1,1), applied additively.
	Uniform
	// Lognormal draws N(0,1), applied multiplicatively in the log domain.
	Lognormal
)

// String names the distribution as the netlist DIST= keyword spells it.
func (d Dist) String() string {
	switch d {
	case Gauss:
		return "GAUSS"
	case Uniform:
		return "UNIFORM"
	case Lognormal:
		return "LOGNORMAL"
	default:
		return fmt.Sprintf("Dist(%d)", int(d))
	}
}

// ParseDist reads a DIST= keyword (case-insensitive; "" is Gauss,
// NORMAL and FLAT are aliases of GAUSS and UNIFORM). The error is
// unprefixed so callers can place it: a netlist line, a vary option.
func ParseDist(s string) (Dist, error) {
	switch strings.ToUpper(s) {
	case "", "GAUSS", "NORMAL":
		return Gauss, nil
	case "UNIFORM", "FLAT":
		return Uniform, nil
	case "LOGNORMAL":
		return Lognormal, nil
	default:
		return Gauss, fmt.Errorf("unknown distribution %q (want GAUSS, UNIFORM or LOGNORMAL)", s)
	}
}
