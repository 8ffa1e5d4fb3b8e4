package circuit

import (
	"fmt"
	"strings"
	"testing"

	"nanosim/internal/device"
)

func TestNodeInterning(t *testing.T) {
	c := New("t")
	a := c.Node("in")
	b := c.Node("in")
	if a != b {
		t.Error("same name produced different nodes")
	}
	if c.Node("0") != Ground || c.Node("gnd") != Ground || c.Node("GND") != Ground {
		t.Error("ground aliases broken")
	}
	if c.NumNodes() != 2 { // ground + in
		t.Errorf("NumNodes = %d, want 2", c.NumNodes())
	}
	if c.NodeName(a) != "in" || c.NodeName(Ground) != "0" {
		t.Error("NodeName wrong")
	}
	if !strings.HasPrefix(c.NodeName(NodeID(99)), "node#") {
		t.Error("out-of-range NodeName should be synthetic")
	}
}

// TestReserveKeepsContents checks that reserving storage on a circuit
// that already holds nodes and elements changes no lookup, ID or order.
func TestReserveKeepsContents(t *testing.T) {
	c := New("t")
	if _, err := c.AddResistor("R1", "in", "mid", 1e3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddCapacitor("C1", "mid", "gnd", 1e-12); err != nil {
		t.Fatal(err)
	}
	before := c.String()
	c.Reserve(100, 50)
	if c.String() != before || c.NumNodes() != 3 || len(c.Elements()) != 2 {
		t.Fatalf("reserve changed the circuit:\n%s\nwas\n%s", c.String(), before)
	}
	if c.Node("in") != 1 || c.Node("mid") != 2 || c.Node("GND") != Ground || c.Element("C1") == nil {
		t.Fatal("reserve lost a node or element lookup")
	}
	if _, err := c.AddResistor("R1", "in", "mid", 1); err == nil {
		t.Fatal("duplicate name accepted after reserve")
	}
	if _, err := c.AddResistor("R2", "mid", "out", 2e3); err != nil || c.Node("out") != 3 {
		t.Fatalf("add after reserve: %v, out=%d", err, c.Node("out"))
	}
}

// TestAddAllocatesOnlyTheElement pins the builder's per-element cost:
// on reserved storage and existing nodes, an Add call allocates the
// element itself and nothing else (no terminal slice for validation).
func TestAddAllocatesOnlyTheElement(t *testing.T) {
	const runs = 200
	iv := device.NewRTD()
	for _, tc := range []struct {
		name string
		add  func(c *Circuit, name string) error
	}{
		{"AddResistor", func(c *Circuit, name string) error { _, err := c.AddResistor(name, "a", "b", 1e3); return err }},
		{"AddCapacitor", func(c *Circuit, name string) error { _, err := c.AddCapacitor(name, "a", "b", 1e-12); return err }},
		{"AddDevice", func(c *Circuit, name string) error { _, err := c.AddDevice(name, "a", "b", iv); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New("allocs")
			c.Node("a")
			c.Node("b")
			c.Reserve(runs+1, 0)
			names := make([]string, runs+1)
			for i := range names {
				names[i] = fmt.Sprintf("X%d", i)
			}
			k := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if err := tc.add(c, names[k]); err != nil {
					t.Fatal(err)
				}
				k++
			})
			if allocs != 1 {
				t.Fatalf("%s allocates %v objects per call, want 1 (the element)", tc.name, allocs)
			}
		})
	}
}

func TestBuilderAndLookup(t *testing.T) {
	c := New("rc")
	r, err := c.AddResistor("R1", "in", "out", 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conductance() != 1e-3 {
		t.Error("Conductance wrong")
	}
	if _, err := c.AddCapacitor("C1", "out", "0", 1e-12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVSource("V1", "in", "0", device.DC(5)); err != nil {
		t.Fatal(err)
	}
	if c.Element("R1") == nil || c.Element("ZZ") != nil {
		t.Error("Element lookup wrong")
	}
	if len(c.Elements()) != 3 {
		t.Errorf("Elements = %d", len(c.Elements()))
	}
	names := c.NodeNames()
	if len(names) != 2 || names[0] != "in" || names[1] != "out" {
		t.Errorf("NodeNames = %v", names)
	}
	if !strings.Contains(c.String(), "R1") {
		t.Error("String missing element")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c := New("t")
	if _, err := c.AddResistor("R1", "a", "0", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("R1", "b", "0", 1); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestValueValidation(t *testing.T) {
	c := New("t")
	if _, err := c.AddResistor("R1", "a", "0", 0); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := c.AddResistor("R2", "a", "0", -5); err == nil {
		t.Error("R<0 accepted")
	}
	if _, err := c.AddCapacitor("C1", "a", "0", 0); err == nil {
		t.Error("C=0 accepted")
	}
	if _, err := c.AddInductor("L1", "a", "0", -1); err == nil {
		t.Error("L<0 accepted")
	}
	if _, err := c.AddVSource("V1", "a", "0", nil); err == nil {
		t.Error("nil waveform accepted")
	}
	if _, err := c.AddISource("I1", "a", "0", nil); err == nil {
		t.Error("nil waveform accepted")
	}
	if _, err := c.AddDevice("N1", "a", "0", nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := c.AddFET("M1", "d", "g", "s", nil); err == nil {
		t.Error("nil FET model accepted")
	}
}

func TestElementNodes(t *testing.T) {
	c := New("t")
	f, err := c.AddFET("M1", "d", "g", "s", device.NewNMOS())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Nodes()) != 3 {
		t.Error("FET should expose 3 nodes")
	}
	d, err := c.AddDevice("N1", "d", "0", device.NewRTD())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes()) != 2 || d.Name() != "N1" {
		t.Error("TwoTerm shape wrong")
	}
	l, err := c.AddInductor("L1", "d", "s", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "L1" {
		t.Error("inductor name")
	}
	i, err := c.AddISource("I1", "d", "0", device.DC(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if i.Name() != "I1" {
		t.Error("isource name")
	}
}

func TestValidate(t *testing.T) {
	// Healthy RC divider.
	c := New("ok")
	c.AddVSource("V1", "in", "0", device.DC(1))
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddCapacitor("C1", "out", "0", 1e-12)
	if err := c.Validate(); err != nil {
		t.Errorf("healthy circuit rejected: %v", err)
	}

	// Empty circuit.
	if err := New("empty").Validate(); err == nil {
		t.Error("empty circuit accepted")
	}

	// No ground.
	ng := New("noground")
	ng.AddResistor("R1", "a", "b", 1e3)
	ng.AddResistor("R2", "b", "a", 1e3)
	if err := ng.Validate(); err == nil {
		t.Error("groundless circuit accepted")
	}

	// Dangling node.
	dg := New("dangling")
	dg.AddVSource("V1", "in", "0", device.DC(1))
	dg.AddResistor("R1", "in", "nowhere", 1e3)
	err := dg.Validate()
	if err == nil {
		t.Fatal("dangling node accepted")
	}
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(ve.Problems) == 0 || !strings.Contains(ve.Error(), "nowhere") {
		t.Errorf("problems = %v", ve.Problems)
	}

	// Declared-but-unused node.
	du := New("unused")
	du.Node("ghost")
	du.AddVSource("V1", "in", "0", device.DC(1))
	du.AddResistor("R1", "in", "0", 1e3)
	if err := du.Validate(); err == nil {
		t.Error("ghost node accepted")
	}
}

func TestValidationErrorSingle(t *testing.T) {
	e := &ValidationError{Problems: []string{"p1"}}
	if !strings.Contains(e.Error(), "p1") || strings.Contains(e.Error(), "problems") {
		t.Errorf("single-problem message: %q", e.Error())
	}
	e2 := &ValidationError{Problems: []string{"p1", "p2"}}
	if !strings.Contains(e2.Error(), "2 problems") {
		t.Errorf("multi-problem message: %q", e2.Error())
	}
}
