package netparse

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nanosim/internal/circuit"
	"nanosim/internal/device"
)

// pinCard is one card of the pinned expansion deck: an element (R, C,
// L, N) or, with an X name, an instance of master sub.
type pinCard struct {
	name  string
	nodes []string
	value float64
	sub   string
}

// pinMaster is one .subckt of the pinned expansion deck.
type pinMaster struct {
	ports []string
	body  []pinCard
}

// pinMasters is a two-level hierarchy: "pair" nests two "cell"s. Internal
// nodes are first referenced by element cards and by an X card ("m"),
// referenced again later, and mixed with ground aliases.
var pinMasters = map[string]pinMaster{
	"cell": {ports: []string{"in", "out"}, body: []pinCard{
		{name: "R1", nodes: []string{"in", "mid"}, value: 1e3},
		{name: "N1", nodes: []string{"mid", "0"}, sub: "rtd"},
		{name: "C1", nodes: []string{"mid", "out"}, value: 2e-15},
		{name: "R2", nodes: []string{"out", "gnd"}, value: 5e3},
	}},
	"pair": {ports: []string{"a", "b"}, body: []pinCard{
		{name: "X1", nodes: []string{"a", "m"}, sub: "cell"},
		{name: "L1", nodes: []string{"m", "tap"}, value: 1e-9},
		{name: "X2", nodes: []string{"tap", "b"}, sub: "cell"},
		{name: "R3", nodes: []string{"m", "0"}, value: 2e3},
		{name: "C2", nodes: []string{"tap", "a"}, value: 3e-15},
	}},
}

// pinTop lists the top-level cards of an n-pair chain.
func pinTop(n int) []pinCard {
	cards := []pinCard{{name: "V1", nodes: []string{"s0", "0"}, value: 0.8}}
	for i := 0; i < n; i++ {
		cards = append(cards, pinCard{name: fmt.Sprintf("X%d", i),
			nodes: []string{fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1)}, sub: "pair"})
	}
	return append(cards, pinCard{name: "RL", nodes: []string{fmt.Sprintf("s%d", n), "0"}, value: 1e6})
}

// renderPinCard writes one card as netlist text.
func renderPinCard(b *strings.Builder, c pinCard) {
	fmt.Fprintf(b, "%s %s ", c.name, strings.Join(c.nodes, " "))
	if c.sub != "" {
		fmt.Fprintf(b, "%s\n", c.sub)
		return
	}
	fmt.Fprintf(b, "%g\n", c.value)
}

// renderPinDeck writes the n-pair deck as netlist text.
func renderPinDeck(n int) string {
	var b strings.Builder
	b.WriteString("pinned expansion\n")
	for _, c := range pinTop(n) {
		renderPinCard(&b, c)
	}
	for _, name := range []string{"cell", "pair"} {
		m := pinMasters[name]
		fmt.Fprintf(&b, ".subckt %s %s\n", name, strings.Join(m.ports, " "))
		for _, c := range m.body {
			renderPinCard(&b, c)
		}
		b.WriteString(".ends\n")
	}
	b.WriteString(".model rtd RTD\n.end\n")
	return b.String()
}

// buildPinReference builds the n-pair deck through the circuit builder
// API in expansion order, with the instance table expansion must emit.
func buildPinReference(t *testing.T, n int) (*circuit.Circuit, []*circuit.Instance) {
	t.Helper()
	c := circuit.New("pinned expansion")
	var insts []*circuit.Instance
	add := func(card pinCard, name string, nodes []string) {
		var err error
		switch card.name[0] {
		case 'R':
			_, err = c.AddResistor(name, nodes[0], nodes[1], card.value)
		case 'C':
			_, err = c.AddCapacitor(name, nodes[0], nodes[1], card.value)
		case 'L':
			_, err = c.AddInductor(name, nodes[0], nodes[1], card.value)
		case 'V':
			_, err = c.AddVSource(name, nodes[0], nodes[1], device.DC(card.value))
		case 'N':
			_, err = c.AddDevice(name, nodes[0], nodes[1], device.NewRTD())
		default:
			t.Fatalf("no builder for %s", name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var expand func(path, master string, nodes []string, parent int)
	expand = func(path, master string, nodes []string, parent int) {
		m := pinMasters[master]
		in := &circuit.Instance{Path: path, Master: master, Parent: parent, Bindings: map[string]string{}}
		flat := map[string]string{"0": "0", "gnd": "0"}
		for i, p := range m.ports {
			flat[p] = nodes[i]
			in.Bindings[p] = nodes[i]
		}
		idx := len(insts)
		insts = append(insts, in)
		for _, card := range m.body {
			mapped := make([]string, len(card.nodes))
			for i, n := range card.nodes {
				g, ok := flat[n]
				if !ok {
					g = path + "." + n
					flat[n] = g
					in.InternalNodes = append(in.InternalNodes, g)
				}
				mapped[i] = g
			}
			name := path + "." + card.name
			if card.name[0] == 'X' {
				expand(name, card.sub, mapped, idx)
				continue
			}
			add(card, name, mapped)
			in.Elems = append(in.Elems, name)
		}
	}
	for _, card := range pinTop(n) {
		if card.name[0] == 'X' {
			expand(card.name, card.sub, card.nodes, -1)
			continue
		}
		add(card, card.name, card.nodes)
	}
	return c, insts
}

// TestExpansionMatchesBuilder pins the flat .subckt expansion: a
// generated two-level deck must parse into exactly the circuit the
// builder API makes in expansion order — element order, names, kinds,
// node IDs and names, values — and the instance table must list the
// same owned elements and internal nodes.
func TestExpansionMatchesBuilder(t *testing.T) {
	const pairs = 6 // 6 pairs + 12 cells = 18 instances
	deck, err := Parse(renderPinDeck(pairs))
	if err != nil {
		t.Fatal(err)
	}
	got := deck.Circuit
	want, wantInsts := buildPinReference(t, pairs)

	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%d nodes, builder made %d", got.NumNodes(), want.NumNodes())
	}
	for id := 0; id < want.NumNodes(); id++ {
		if g, w := got.NodeName(circuit.NodeID(id)), want.NodeName(circuit.NodeID(id)); g != w {
			t.Fatalf("node %d is %q, builder made %q", id, g, w)
		}
	}
	ge, we := got.Elements(), want.Elements()
	if len(ge) != len(we) {
		t.Fatalf("%d elements, builder made %d", len(ge), len(we))
	}
	for i := range we {
		g, w := ge[i], we[i]
		if g.Name() != w.Name() || reflect.TypeOf(g) != reflect.TypeOf(w) {
			t.Fatalf("element %d is %s %T, builder made %s %T", i, g.Name(), g, w.Name(), w)
		}
		if !slices.Equal(g.Nodes(), w.Nodes()) {
			t.Fatalf("element %s nodes %v, builder made %v", g.Name(), g.Nodes(), w.Nodes())
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("element %s values %+v, builder made %+v", g.Name(), g, w)
		}
	}

	insts := got.Hier.Instances
	if len(insts) != len(wantInsts) {
		t.Fatalf("%d instances, want %d", len(insts), len(wantInsts))
	}
	for i, w := range wantInsts {
		g := insts[i]
		if g.Path != w.Path || g.Master != w.Master || g.Parent != w.Parent || !reflect.DeepEqual(g.Bindings, w.Bindings) {
			t.Fatalf("instance %d is %s (%s, parent %d, %v), want %s (%s, parent %d, %v)",
				i, g.Path, g.Master, g.Parent, g.Bindings, w.Path, w.Master, w.Parent, w.Bindings)
		}
		if !slices.Equal(g.Elems, w.Elems) {
			t.Fatalf("instance %s elems %v, want %v", g.Path, g.Elems, w.Elems)
		}
		if !slices.Equal(g.InternalNodes, w.InternalNodes) {
			t.Fatalf("instance %s internal nodes %v, want %v", g.Path, g.InternalNodes, w.InternalNodes)
		}
	}
}
