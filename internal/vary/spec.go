package vary

import (
	"fmt"
	"math"
	"strings"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
	"nanosim/internal/randx"
)

// Dist selects the sampling distribution of a Spec. Its names and
// spellings are randx's, the one list the netlist parser also checks.
type Dist = randx.Dist

// Supported distributions.
const (
	// Gauss perturbs additively: value = nominal + sigma·N(0,1).
	Gauss = randx.Gauss
	// Uniform perturbs additively: value = nominal + sigma·U(-1,1);
	// Sigma is the half-range.
	Uniform = randx.Uniform
	// Lognormal perturbs multiplicatively: value = nominal·exp(sigma·N(0,1));
	// Sigma is the log-domain standard deviation and Rel is ignored.
	Lognormal = randx.Lognormal
)

// ParseDist reads a DIST= keyword (case-insensitive).
func ParseDist(s string) (Dist, error) {
	d, err := randx.ParseDist(s)
	if err != nil {
		return d, fmt.Errorf("vary: %w", err)
	}
	return d, nil
}

// Spec declares one Monte Carlo variation: which parameter varies, how
// it is distributed, and whether matched elements share a draw.
type Spec struct {
	// Elem selects elements by name; a trailing '*' matches by prefix
	// ("N*" varies every nanodevice).
	Elem string
	// Param names the parameter. "" selects the element's principal
	// value (R, C, L, or the DC level of a source); device models use
	// their .model card names ("A", "VTO", "IS", ...).
	Param string
	// Dist is the sampling distribution.
	Dist Dist
	// Sigma is the tolerance: the standard deviation for Gauss, the
	// half-range for Uniform, the log-sigma for Lognormal.
	Sigma float64
	// Rel scales Sigma by |nominal| (a "5%" tolerance is Sigma=0.05,
	// Rel=true). Ignored for Lognormal, which is inherently relative.
	Rel bool
	// Lot makes all elements matched by this spec share one draw per
	// trial (SPICE LOT semantics: lot-to-lot shift). The default is
	// DEV semantics: an independent draw per matched element.
	Lot bool
}

// String renders the spec for reports: "N*(A) DEV=5% GAUSS".
func (s Spec) String() string {
	name := s.Elem
	if s.Param != "" {
		name += "(" + s.Param + ")"
	}
	kind := "DEV"
	if s.Lot {
		kind = "LOT"
	}
	tol := fmt.Sprintf("%g", s.Sigma)
	if s.Rel {
		tol = fmt.Sprintf("%g%%", s.Sigma*100)
	}
	return fmt.Sprintf("%s %s=%s %s", name, kind, tol, s.Dist)
}

// SweepAxis declares one deterministic sweep dimension of a parameter
// grid (the netlist .step card).
type SweepAxis struct {
	// Elem and Param select the parameter as in Spec (no patterns: a
	// sweep axis names exactly one element).
	Elem, Param string
	// From and To are the first and last grid values (inclusive).
	From, To float64
	// Points is the number of grid points (>= 1).
	Points int
	// Log spaces the grid geometrically; From and To must then share a
	// sign and be nonzero.
	Log bool
}

// Values materializes the axis grid.
func (a SweepAxis) Values() []float64 {
	out := make([]float64, a.Points)
	if a.Points == 1 {
		out[0] = a.From
		return out
	}
	for i := range out {
		f := float64(i) / float64(a.Points-1)
		if a.Log {
			out[i] = a.From * math.Pow(a.To/a.From, f)
		} else {
			out[i] = a.From + (a.To-a.From)*f
		}
	}
	return out
}

// validate checks the axis is well-formed.
func (a SweepAxis) validate() error {
	if a.Elem == "" {
		return fmt.Errorf("vary: sweep axis needs an element name")
	}
	if a.Points < 1 {
		return fmt.Errorf("vary: sweep axis %s needs >= 1 points, got %d", a.Elem, a.Points)
	}
	if a.Log && (a.From == 0 || a.To == 0 || (a.From < 0) != (a.To < 0)) {
		return fmt.Errorf("vary: log sweep axis %s needs nonzero same-sign bounds, got [%g, %g]", a.Elem, a.From, a.To)
	}
	return nil
}

// target is one resolved parameter accessor on a (cloned) circuit.
type target struct {
	name string // "N1(A)" for diagnostics
	get  func() float64
	set  func(float64) error
}

// matchIndices returns the insertion-order indices of the elements of
// ckt matched by elem (exact name, or prefix when elem ends in '*').
// Clone preserves element order, so indices resolved against the base
// circuit address the same elements in every trial's clone — trials
// skip the name scan entirely.
func matchIndices(ckt *circuit.Circuit, elem string) ([]int, error) {
	prefix := ""
	if strings.HasSuffix(elem, "*") {
		prefix = strings.TrimSuffix(elem, "*")
	}
	var out []int
	for i, e := range ckt.Elements() {
		if prefix == "" {
			if e.Name() != elem {
				continue
			}
		} else if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		out = append(out, i)
	}
	if len(out) == 0 {
		return nil, noMatchErr(ckt, elem)
	}
	return out, nil
}

// noMatchErr builds the zero-match error. Hierarchical device paths
// ("X1.X2.R1") resolve against the circuit's instance table rather than
// the flattened-name string convention: when the path prefix names a
// real subcircuit instance the error reports which master it is and
// what the instance actually owns, and when it names no instance the
// error says so instead of pretending the device could exist.
func noMatchErr(ckt *circuit.Circuit, elem string) error {
	h := ckt.Hier
	if h == nil {
		return fmt.Errorf("vary: no element matches %q", elem)
	}
	pat := strings.TrimSuffix(elem, "*")
	// Longest instance-path prefix wins: "X1.X2.R1" checks "X1.X2",
	// then "X1".
	for path := pat; ; {
		dot := strings.LastIndexByte(path, '.')
		if dot <= 0 {
			break
		}
		path = path[:dot]
		in := h.Instance(path)
		if in == nil {
			continue
		}
		local := strings.TrimPrefix(elem, path+".")
		return fmt.Errorf("vary: no element matches %q: subcircuit instance %s (master %q) has no device %q; it owns %s",
			elem, path, in.Master, local, strings.Join(peekNames(in, h), ", "))
	}
	if strings.ContainsRune(pat, '.') {
		return fmt.Errorf("vary: no element matches %q and its path prefix names no subcircuit instance (the deck has %d instances)",
			elem, len(h.Instances))
	}
	return fmt.Errorf("vary: no element matches %q", elem)
}

// peekNames lists what an instance owns — its direct elements plus the
// paths of nested instances — truncated for readable errors.
func peekNames(in *circuit.Instance, h *circuit.Hierarchy) []string {
	var out []string
	out = append(out, in.Elems...)
	for _, cand := range h.Instances {
		if cand.Parent >= 0 && h.Instances[cand.Parent] == in {
			out = append(out, cand.Path+".*")
		}
	}
	const max = 8
	if len(out) > max {
		out = append(out[:max], "...")
	}
	return out
}

// resolveTargets resolves elem/param against ckt in one pass: match,
// then build one accessor per matched element.
func resolveTargets(ckt *circuit.Circuit, elem, param string) ([]target, error) {
	idxs, err := matchIndices(ckt, elem)
	if err != nil {
		return nil, err
	}
	return targetsAt(ckt, idxs, param)
}

// targetsAt builds accessors for the given element indices.
func targetsAt(ckt *circuit.Circuit, idxs []int, param string) ([]target, error) {
	out := make([]target, 0, len(idxs))
	for _, i := range idxs {
		tg, err := resolveParam(ckt.Elements()[i], param)
		if err != nil {
			return nil, err
		}
		out = append(out, tg)
	}
	return out, nil
}

// resolveParam builds the accessor for one element's parameter.
func resolveParam(e circuit.Element, param string) (target, error) {
	p := strings.ToUpper(param)
	label := e.Name()
	if param != "" {
		label += "(" + p + ")"
	}
	fail := func(format string, args ...any) (target, error) {
		return target{}, fmt.Errorf("vary: %s: "+format, append([]any{label}, args...)...)
	}
	switch el := e.(type) {
	case *circuit.Resistor:
		if p != "" && p != "R" {
			return fail("resistors only expose R")
		}
		return target{name: label, get: func() float64 { return el.R },
			set: func(v float64) error {
				if v <= 0 {
					return fmt.Errorf("vary: %s: R must stay > 0, got %g", label, v)
				}
				el.R = v
				return nil
			}}, nil
	case *circuit.Capacitor:
		switch p {
		case "", "C":
			return target{name: label, get: func() float64 { return el.C },
				set: func(v float64) error {
					if v <= 0 {
						return fmt.Errorf("vary: %s: C must stay > 0, got %g", label, v)
					}
					el.C = v
					return nil
				}}, nil
		case "IC":
			return target{name: label, get: func() float64 { return el.IC },
				set: func(v float64) error { el.IC, el.HasIC = v, true; return nil }}, nil
		default:
			return fail("capacitors expose C and IC")
		}
	case *circuit.Inductor:
		if p != "" && p != "L" {
			return fail("inductors only expose L")
		}
		return target{name: label, get: func() float64 { return el.L },
			set: func(v float64) error {
				if v <= 0 {
					return fmt.Errorf("vary: %s: L must stay > 0, got %g", label, v)
				}
				el.L = v
				return nil
			}}, nil
	case *circuit.VSource:
		return sourceTarget(label, p, &el.W, &el.NoiseSigma)
	case *circuit.ISource:
		return sourceTarget(label, p, &el.W, &el.NoiseSigma)
	case *circuit.TwoTerm:
		pm, ok := el.Model.(device.Perturber)
		if !ok {
			return fail("model %T has no perturbable parameters", el.Model)
		}
		if p == "" {
			return fail("device parameters must be named explicitly (have %v)", pm.Params())
		}
		if _, ok := pm.Param(p); !ok {
			return fail("model has no parameter %q (have %v)", p, pm.Params())
		}
		return target{name: label,
			get: func() float64 { v, _ := pm.Param(p); return v },
			set: func(v float64) error { return pm.SetParam(p, v) }}, nil
	case *circuit.TunnelJunction:
		switch p {
		case "", "R", "RT":
			return target{name: label, get: func() float64 { return el.RT },
				set: func(v float64) error {
					if v <= 0 {
						return fmt.Errorf("vary: %s: RT must stay > 0, got %g", label, v)
					}
					el.RT = v
					return nil
				}}, nil
		case "C":
			return target{name: label, get: func() float64 { return el.C },
				set: func(v float64) error {
					if v <= 0 {
						return fmt.Errorf("vary: %s: C must stay > 0, got %g", label, v)
					}
					el.C = v
					return nil
				}}, nil
		default:
			return fail("tunnel junctions expose R (alias RT) and C")
		}
	case *circuit.Island:
		switch p {
		case "", "Q0":
			return target{name: label, get: func() float64 { return el.Q0 },
				set: func(v float64) error { el.Q0 = v; return nil }}, nil
		case "C0":
			return target{name: label, get: func() float64 { return el.C0 },
				set: func(v float64) error {
					if v < 0 {
						return fmt.Errorf("vary: %s: C0 must stay >= 0, got %g", label, v)
					}
					el.C0 = v
					return nil
				}}, nil
		default:
			return fail("islands expose Q0 and C0")
		}
	case *circuit.FET:
		m := el.Model
		if p == "" {
			return fail("FET parameters must be named explicitly (have %v)", m.Params())
		}
		if _, ok := m.Param(p); !ok {
			return fail("MOSFET has no parameter %q (have %v)", p, m.Params())
		}
		return target{name: label,
			get: func() float64 { v, _ := m.Param(p); return v },
			set: func(v float64) error { return m.SetParam(p, v) }}, nil
	default:
		return fail("element kind %T cannot be varied", e)
	}
}

// sourceTarget resolves V/I source parameters: the DC level (requiring a
// DC waveform) or the NOISE intensity.
func sourceTarget(label, p string, w *device.Waveform, noise *float64) (target, error) {
	switch p {
	case "", "DC":
		dc, ok := (*w).(device.DC)
		if !ok {
			return target{}, fmt.Errorf("vary: %s: only DC sources expose a DC level (waveform is %T)", label, *w)
		}
		cur := float64(dc)
		return target{name: label,
			get: func() float64 { return cur },
			set: func(v float64) error { cur = v; *w = device.DC(v); return nil }}, nil
	case "NOISE":
		return target{name: label,
			get: func() float64 { return *noise },
			set: func(v float64) error {
				if v < 0 {
					return fmt.Errorf("vary: %s: NOISE must stay >= 0, got %g", label, v)
				}
				*noise = v
				return nil
			}}, nil
	default:
		return target{}, fmt.Errorf("vary: %s: sources expose DC and NOISE", label)
	}
}

// draw returns the standardized variate of a distribution: N(0,1) for
// Gauss and Lognormal, U(-1,1) for Uniform.
func (s Spec) draw(st *randx.Stream) float64 {
	if s.Dist == Uniform {
		return 2*st.Float64() - 1
	}
	return st.Norm()
}

// apply maps the standardized variate z onto the nominal value.
func (s Spec) apply(nominal, z float64) float64 {
	if s.Dist == Lognormal {
		return nominal * math.Exp(s.Sigma*z)
	}
	sigma := s.Sigma
	if s.Rel {
		sigma *= math.Abs(nominal)
	}
	return nominal + sigma*z
}
