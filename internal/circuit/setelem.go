package circuit

import "fmt"

// Island marks a node as a Coulomb-blockade island: a conductor whose
// charge is quantized in units of the electron charge. The single-electron
// engine (internal/setsim) tracks an integer excess-electron count per
// island and assembles the island capacitance matrix from the tunnel
// junctions and ordinary capacitors attached to the node. Islands are
// invisible to the SWEC/MNA engines; a deck mixing them with .tran/.op
// analyses fails when the stamper meets an element it cannot stamp.
type Island struct {
	name string
	// N is the marked node.
	N NodeID
	// Q0 is the fractional background (offset) charge in units of e;
	// SET behaviour is periodic in Q0 with period 1.
	Q0 float64
	// C0 is an optional stray self-capacitance to ground in farads
	// (>= 0), on top of whatever junctions and capacitors contribute.
	C0 float64
}

// Name implements Element.
func (il *Island) Name() string { return il.name }

// Nodes implements Element.
func (il *Island) Nodes() []NodeID { return []NodeID{il.N} }

// AddIsland marks the named node as a single-electron island with
// background charge q0 (units of e) and stray ground capacitance c0.
func (c *Circuit) AddIsland(name, node string, q0, c0 float64) (*Island, error) {
	if c0 < 0 {
		return nil, fmt.Errorf("circuit: island %q must have C0 >= 0, got %g", name, c0)
	}
	il := &Island{name: name, N: c.Node(node), Q0: q0, C0: c0}
	if il.N == Ground {
		return nil, fmt.Errorf("circuit: island %q cannot be the ground node", name)
	}
	return il, c.add(il, il.N)
}

// TunnelJunction is an ultrasmall metal-insulator-metal junction: a
// capacitance C in parallel with a stochastic tunnel element of
// resistance RT. At least one terminal is normally an Island; a junction
// between two non-island nodes is a plain Poissonian shot-noise junction.
// Like Island it is owned by the single-electron engine, not by MNA.
type TunnelJunction struct {
	name string
	A, B NodeID
	// C is the junction capacitance in farads (> 0).
	C float64
	// RT is the tunnel resistance in ohms (> 0). Orthodox theory wants
	// RT >> RK = h/e^2 ~ 25.8 kOhm for well-defined charge states.
	RT float64
}

// Name implements Element.
func (j *TunnelJunction) Name() string { return j.name }

// Nodes implements Element.
func (j *TunnelJunction) Nodes() []NodeID { return []NodeID{j.A, j.B} }

// AddTunnelJunction adds a tunnel junction between named nodes.
func (c *Circuit) AddTunnelJunction(name, a, b string, farads, rt float64) (*TunnelJunction, error) {
	if farads <= 0 {
		return nil, fmt.Errorf("circuit: tunnel junction %q must have C > 0, got %g", name, farads)
	}
	if rt <= 0 {
		return nil, fmt.Errorf("circuit: tunnel junction %q must have RT > 0, got %g", name, rt)
	}
	j := &TunnelJunction{name: name, A: c.Node(a), B: c.Node(b), C: farads, RT: rt}
	if j.A == j.B {
		return nil, fmt.Errorf("circuit: tunnel junction %q shorts node to itself", name)
	}
	return j, c.add(j, j.A, j.B)
}
