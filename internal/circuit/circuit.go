// Package circuit represents a nanotechnology circuit as a named graph of
// elements over voltage nodes, with a builder API used directly by the
// examples and by the netlist parser. It is purely structural: device
// physics lives in internal/device, and the modified-nodal-analysis view
// of a circuit lives in internal/stamp.
package circuit

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"nanosim/internal/device"
)

// NodeID identifies a node; 0 is always ground ("0" / "gnd").
type NodeID int

// Ground is the reference node.
const Ground NodeID = 0

// Element is any circuit component. Implementations live in this package
// so a Circuit fully describes a simulation input.
type Element interface {
	// Name returns the unique element name (e.g. "R1").
	Name() string
	// Nodes returns all terminal nodes in declaration order.
	Nodes() []NodeID
}

// Circuit is a mutable netlist.
type Circuit struct {
	// Title is a free-form description (netlist first line).
	Title string

	// Hier is the subcircuit provenance sidecar netparse attaches when
	// the deck defines .subckt masters; nil for flat decks. It is
	// read-only after parse and shared (not deep-copied) by Clone.
	Hier *Hierarchy

	nodeNames []string
	nodeIndex map[string]NodeID
	elems     []Element
	byName    map[string]Element
}

// New returns an empty circuit containing only the ground node.
func New(title string) *Circuit {
	c := &Circuit{
		Title:     title,
		nodeNames: []string{"0"},
		nodeIndex: map[string]NodeID{"0": Ground, "gnd": Ground, "GND": Ground},
		byName:    make(map[string]Element),
	}
	return c
}

// Reserve grows the circuit's storage so that adding elems elements
// and nodes nodes does not reallocate it. Contents and order are
// unchanged; the counts are only a capacity hint.
func (c *Circuit) Reserve(elems, nodes int) {
	c.elems = slices.Grow(c.elems, elems)
	c.nodeNames = slices.Grow(c.nodeNames, nodes)
	if elems > 0 {
		m := make(map[string]Element, len(c.byName)+elems)
		maps.Copy(m, c.byName)
		c.byName = m
	}
	if nodes > 0 {
		m := make(map[string]NodeID, len(c.nodeIndex)+nodes)
		maps.Copy(m, c.nodeIndex)
		c.nodeIndex = m
	}
}

// Node returns the NodeID for name, creating the node on first use.
// "0", "gnd" and "GND" alias the ground node.
func (c *Circuit) Node(name string) NodeID {
	if id, ok := c.nodeIndex[name]; ok {
		return id
	}
	id := NodeID(len(c.nodeNames))
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIndex[name] = id
	return id
}

// LookupNode returns the NodeID of an existing node and reports whether
// one is named name; unlike Node it never creates one.
func (c *Circuit) LookupNode(name string) (NodeID, bool) {
	id, ok := c.nodeIndex[name]
	return id, ok
}

// NodeName returns the declared name of id ("0" for ground).
func (c *Circuit) NodeName(id NodeID) string {
	if int(id) < 0 || int(id) >= len(c.nodeNames) {
		return fmt.Sprintf("node#%d", int(id))
	}
	return c.nodeNames[id]
}

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// Elements returns the elements in insertion order.
func (c *Circuit) Elements() []Element { return c.elems }

// Element returns the named element, or nil.
func (c *Circuit) Element(name string) Element { return c.byName[name] }

// NodeNames returns all non-ground node names sorted alphabetically,
// useful for deterministic reporting.
func (c *Circuit) NodeNames() []string {
	out := make([]string, 0, len(c.nodeNames)-1)
	for i, n := range c.nodeNames {
		if i != 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// add validates and inserts an element whose terminals are nodes. The
// Add methods pass the IDs they hold: Element.Nodes would allocate a
// slice per element.
func (c *Circuit) add(e Element, nodes ...NodeID) error {
	name := e.Name()
	if name == "" {
		return fmt.Errorf("circuit: element with empty name")
	}
	if _, dup := c.byName[name]; dup {
		return fmt.Errorf("circuit: duplicate element name %q", name)
	}
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= len(c.nodeNames) {
			return fmt.Errorf("circuit: element %q references unknown node %d", name, n)
		}
	}
	c.elems = append(c.elems, e)
	c.byName[name] = e
	return nil
}

// String renders a netlist-like summary for diagnostics.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s\n", c.Title)
	for _, e := range c.elems {
		nodes := make([]string, 0, 2)
		for _, n := range e.Nodes() {
			nodes = append(nodes, c.NodeName(n))
		}
		fmt.Fprintf(&b, "%-8s %s\n", e.Name(), strings.Join(nodes, " "))
	}
	return b.String()
}

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	name string
	A, B NodeID
	// R is the resistance in ohms (> 0).
	R float64
}

// Name implements Element.
func (r *Resistor) Name() string { return r.name }

// Nodes implements Element.
func (r *Resistor) Nodes() []NodeID { return []NodeID{r.A, r.B} }

// Conductance returns 1/R.
func (r *Resistor) Conductance() float64 { return 1 / r.R }

// AddResistor adds a resistor between named nodes.
func (c *Circuit) AddResistor(name, a, b string, ohms float64) (*Resistor, error) {
	if ohms <= 0 {
		return nil, fmt.Errorf("circuit: resistor %q must have R > 0, got %g", name, ohms)
	}
	r := &Resistor{name: name, A: c.Node(a), B: c.Node(b), R: ohms}
	return r, c.add(r, r.A, r.B)
}

// Capacitor is a linear two-terminal capacitance.
type Capacitor struct {
	name string
	A, B NodeID
	// C is the capacitance in farads (> 0).
	C float64
	// IC is the optional initial branch voltage; valid when HasIC.
	IC    float64
	HasIC bool
}

// Name implements Element.
func (cp *Capacitor) Name() string { return cp.name }

// Nodes implements Element.
func (cp *Capacitor) Nodes() []NodeID { return []NodeID{cp.A, cp.B} }

// AddCapacitor adds a capacitor between named nodes.
func (c *Circuit) AddCapacitor(name, a, b string, farads float64) (*Capacitor, error) {
	if farads <= 0 {
		return nil, fmt.Errorf("circuit: capacitor %q must have C > 0, got %g", name, farads)
	}
	cp := &Capacitor{name: name, A: c.Node(a), B: c.Node(b), C: farads}
	return cp, c.add(cp, cp.A, cp.B)
}

// Inductor is a linear two-terminal inductance; it introduces a branch
// current unknown in MNA.
type Inductor struct {
	name string
	A, B NodeID
	// L is the inductance in henries (> 0).
	L float64
}

// Name implements Element.
func (l *Inductor) Name() string { return l.name }

// Nodes implements Element.
func (l *Inductor) Nodes() []NodeID { return []NodeID{l.A, l.B} }

// AddInductor adds an inductor between named nodes.
func (c *Circuit) AddInductor(name, a, b string, henries float64) (*Inductor, error) {
	if henries <= 0 {
		return nil, fmt.Errorf("circuit: inductor %q must have L > 0, got %g", name, henries)
	}
	l := &Inductor{name: name, A: c.Node(a), B: c.Node(b), L: henries}
	return l, c.add(l, l.A, l.B)
}

// VSource is an independent voltage source (branch-current unknown in
// MNA). NoiseSigma > 0 marks it as a stochastic input for the
// Euler-Maruyama engine: the source voltage becomes W(t)·NoiseSigma on
// top of the deterministic waveform (units V/√s intensity).
type VSource struct {
	name     string
	Pos, Neg NodeID
	// W is the deterministic waveform.
	W device.Waveform
	// NoiseSigma is the white-noise intensity (0 = deterministic).
	NoiseSigma float64
	// ACMag and ACPhase (degrees) define the small-signal excitation for
	// .ac analysis; ACMag == 0 means the source is AC-quiet.
	ACMag, ACPhase float64
}

// Name implements Element.
func (v *VSource) Name() string { return v.name }

// Nodes implements Element.
func (v *VSource) Nodes() []NodeID { return []NodeID{v.Pos, v.Neg} }

// AddVSource adds a voltage source (pos, neg) with the given waveform.
func (c *Circuit) AddVSource(name, pos, neg string, w device.Waveform) (*VSource, error) {
	if w == nil {
		return nil, fmt.Errorf("circuit: vsource %q needs a waveform", name)
	}
	v := &VSource{name: name, Pos: c.Node(pos), Neg: c.Node(neg), W: w}
	return v, c.add(v, v.Pos, v.Neg)
}

// ISource is an independent current source pushing current from Neg to
// Pos through the external circuit (SPICE convention: positive current
// flows from Pos terminal through the source to Neg). NoiseSigma > 0
// marks a stochastic input (units A/√s intensity).
type ISource struct {
	name     string
	Pos, Neg NodeID
	// W is the deterministic waveform.
	W device.Waveform
	// NoiseSigma is the white-noise intensity (0 = deterministic).
	NoiseSigma float64
	// ACMag and ACPhase (degrees) define the small-signal excitation for
	// .ac analysis; ACMag == 0 means the source is AC-quiet.
	ACMag, ACPhase float64
}

// Name implements Element.
func (i *ISource) Name() string { return i.name }

// Nodes implements Element.
func (i *ISource) Nodes() []NodeID { return []NodeID{i.Pos, i.Neg} }

// AddISource adds a current source with the given waveform.
func (c *Circuit) AddISource(name, pos, neg string, w device.Waveform) (*ISource, error) {
	if w == nil {
		return nil, fmt.Errorf("circuit: isource %q needs a waveform", name)
	}
	i := &ISource{name: name, Pos: c.Node(pos), Neg: c.Node(neg), W: w}
	return i, c.add(i, i.Pos, i.Neg)
}

// TwoTerm is a nonlinear two-terminal device (RTD, nanowire, RTT, diode,
// PWL table) wrapping a device.IV model; the branch voltage is V(A)-V(B).
type TwoTerm struct {
	name string
	A, B NodeID
	// Model is the I-V physics.
	Model device.IV
}

// Name implements Element.
func (t *TwoTerm) Name() string { return t.name }

// Nodes implements Element.
func (t *TwoTerm) Nodes() []NodeID { return []NodeID{t.A, t.B} }

// AddDevice adds a nonlinear two-terminal device.
func (c *Circuit) AddDevice(name, a, b string, m device.IV) (*TwoTerm, error) {
	if m == nil {
		return nil, fmt.Errorf("circuit: device %q needs a model", name)
	}
	t := &TwoTerm{name: name, A: c.Node(a), B: c.Node(b), Model: m}
	return t, c.add(t, t.A, t.B)
}

// FET is a three-terminal MOSFET instance.
type FET struct {
	name    string
	D, G, S NodeID
	// Model is the transistor physics.
	Model *device.MOSFET
}

// Name implements Element.
func (f *FET) Name() string { return f.name }

// Nodes implements Element.
func (f *FET) Nodes() []NodeID { return []NodeID{f.D, f.G, f.S} }

// AddFET adds a MOSFET with drain, gate, source nodes.
func (c *Circuit) AddFET(name, d, g, s string, m *device.MOSFET) (*FET, error) {
	if m == nil {
		return nil, fmt.Errorf("circuit: fet %q needs a model", name)
	}
	f := &FET{name: name, D: c.Node(d), G: c.Node(g), S: c.Node(s)}
	f.Model = m
	return f, c.add(f, f.D, f.G, f.S)
}
