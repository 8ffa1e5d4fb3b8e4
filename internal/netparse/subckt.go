package netparse

// Subcircuit expansion. The flat expansion is unchanged from the
// original single-function expander — ports map to the instance nodes,
// internal nodes and element names get the "X1." path prefix, nested X
// lines expand recursively — but expansion now also builds the
// circuit.Hierarchy sidecar (master table with content hashes, instance
// table with port bindings and per-instance element/node ownership) that
// the hierarchical compiler (internal/hier), the vary/mc device-path
// resolver and the serve master-template cache consume.

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"

	"nanosim/internal/circuit"
)

// subcktDef is a recorded .subckt body awaiting expansion.
type subcktDef struct {
	name  string
	ports []string
	body  []bodyLine
	line  int
}

type bodyLine struct {
	fields []string
	num    int
}

// maxSubcktDepth bounds recursive expansion. Mutual recursion between
// masters is caught structurally (see the active chain in expand); the
// depth bound is the backstop for legitimately deep — or degenerate —
// nesting chains.
const maxSubcktDepth = 16

// isInstanceCard reports whether an element card is a subcircuit
// instance (X prefix).
func isInstanceCard(name string) bool {
	return name != "" && (name[0] == 'x' || name[0] == 'X')
}

// nodeFieldRange reports the field index range [lo, hi) that holds node
// names on an element card: two-terminal kinds use fields 1-2, MOSFETs
// 1-3, X instances everything between the name and the master name.
func nodeFieldRange(fields []string) (lo, hi int) {
	switch fields[0][0] {
	case 'x', 'X':
		return 1, len(fields) - 1
	case 'm', 'M':
		hi = 4
	default:
		hi = 3
	}
	if hi > len(fields) {
		hi = len(fields)
	}
	return 1, hi
}

// buildHierarchy constructs the master table (with content hashes) for
// a deck's subcircuit definitions.
func buildHierarchy(subckts map[string]*subcktDef) *circuit.Hierarchy {
	h := &circuit.Hierarchy{Masters: make(map[string]*circuit.Master, len(subckts))}
	memo := map[string]string{}
	for name, def := range subckts {
		h.Masters[name] = &circuit.Master{
			Name:  name,
			Ports: append([]string(nil), def.ports...),
			Hash:  masterHash(name, subckts, memo, map[string]bool{}),
			Line:  def.line,
		}
	}
	return h
}

// masterHash is the stable content hash of one master: its port list,
// its normalized body lines, and — for nested X cards — the content
// hash of the nested master, so a master's hash pins its full expansion,
// not just its own text. Unresolvable or cyclic references hash as their
// literal name; expansion will reject them with a proper error anyway.
func masterHash(name string, subckts map[string]*subcktDef, memo map[string]string, stack map[string]bool) string {
	if h, ok := memo[name]; ok {
		return h
	}
	def := subckts[name]
	if def == nil || stack[name] {
		return "unresolved:" + name
	}
	stack[name] = true
	h := sha256.New()
	io.WriteString(h, "ports "+strings.Join(def.ports, " ")+"\n")
	for _, bl := range def.body {
		io.WriteString(h, strings.Join(bl.fields, " "))
		if isInstanceCard(bl.fields[0]) && len(bl.fields) >= 3 {
			nested := strings.ToLower(bl.fields[len(bl.fields)-1])
			io.WriteString(h, " !"+masterHash(nested, subckts, memo, stack))
		}
		h.Write([]byte{'\n'})
	}
	delete(stack, name)
	s := hex.EncodeToString(h.Sum(nil))
	memo[name] = s
	return s
}

// expander carries the per-parse state of subcircuit expansion.
type expander struct {
	c       *circuit.Circuit
	models  *modelTable
	subckts map[string]*subcktDef
	hier    *circuit.Hierarchy
	// topNodes maps every node name referenced by a top-level element
	// card to its first source line; expansion checks freshly created
	// internal-node names against it so a collision is a parse error
	// with the hierarchical path, not a silent short between an
	// instance's guts and an unrelated top-level net.
	topNodes map[string]int
	// sizes memoizes sizeOf per master.
	sizes map[string]masterSize
	// buf is the field slice every non-X body line is mapped into:
	// addElement keeps the strings it reads, never the slice, so one
	// buffer serves the whole expansion.
	buf []string
}

// masterSize is what one instance of a master adds to the flat
// circuit, nested instances included.
type masterSize struct {
	elems, nodes int
}

// maxReserve caps the storage Parse reserves ahead of expansion. The
// count is only a capacity hint: a deck that expands past it grows its
// storage on demand, and a malformed deck whose nominal expansion is
// huge cannot make Parse allocate it before expansion rejects the deck.
const maxReserve = 1 << 20

// sizeOf counts what one instance of master name adds, in one memoized
// pass over the masters' bodies. An unknown master counts as empty, and
// so does a master's reference back into its own expansion chain (the
// fuzz seed "ouro" instantiates itself): expansion rejects both with a
// proper error. Counts saturate at maxReserve.
func (ex *expander) sizeOf(name string) masterSize {
	if s, ok := ex.sizes[name]; ok {
		return s
	}
	def := ex.subckts[name]
	if def == nil {
		return masterSize{}
	}
	ex.sizes[name] = masterSize{} // in progress: a cycle counts as empty
	local := make(map[string]bool, len(def.ports)+3)
	for _, n := range append([]string{"0", "gnd", "GND"}, def.ports...) {
		local[n] = true
	}
	var s masterSize
	for _, bl := range def.body {
		lo, hi := nodeFieldRange(bl.fields)
		for i := lo; i < hi && i < len(bl.fields); i++ {
			if !local[bl.fields[i]] {
				local[bl.fields[i]] = true
				s.nodes++
			}
		}
		if !isInstanceCard(bl.fields[0]) {
			s.elems = min(s.elems+1, maxReserve)
		} else if len(bl.fields) >= 3 {
			n := ex.sizeOf(strings.ToLower(bl.fields[len(bl.fields)-1]))
			s.elems = min(s.elems+n.elems, maxReserve)
			s.nodes = min(s.nodes+n.nodes, maxReserve)
		}
	}
	s.nodes = min(s.nodes, maxReserve)
	ex.sizes[name] = s
	return s
}

// expand instantiates "Xname n1 n2 ... subname". fields[0] carries the
// full hierarchical instance path (parents prefixed), parent indexes the
// enclosing instance in the table (-1 at top level), and active is the
// chain of master names currently being expanded, for recursion
// diagnostics.
func (ex *expander) expand(fields []string, line int, parent, depth int, active []string) error {
	if len(fields) < 3 {
		return errf(line, "subcircuit instance needs: Xname nodes... subname")
	}
	inst := fields[0]
	subName := strings.ToLower(fields[len(fields)-1])
	nodes := fields[1 : len(fields)-1]
	def, ok := ex.subckts[subName]
	if !ok {
		return errf(line, "unknown subcircuit %q", subName)
	}
	for _, a := range active {
		if a == subName {
			return errf(line, "recursive subcircuit: %q instantiates itself at instance %s (expansion chain %s > %s)",
				subName, inst, strings.Join(active, " > "), subName)
		}
	}
	if depth > maxSubcktDepth {
		return errf(line, "subcircuit nesting deeper than %d levels at instance %s (expansion chain %s)",
			maxSubcktDepth, inst, strings.Join(append(active, subName), " > "))
	}
	if len(nodes) != len(def.ports) {
		return errf(line, "subcircuit %q needs %d nodes, got %d", subName, len(def.ports), len(nodes))
	}

	ex.hier.Masters[subName].Uses++
	in := &circuit.Instance{
		Path:     inst,
		Master:   subName,
		Parent:   parent,
		Bindings: make(map[string]string, len(def.ports)),
		Line:     line,
	}
	// nodeMap resolves a master-local node name to its flattened one:
	// ground and ports up front, each internal node from the first
	// reference on, when its name is built and checked once.
	nodeMap := map[string]string{"0": "0", "gnd": "0", "GND": "0"}
	for i, p := range def.ports {
		nodeMap[p] = nodes[i]
		in.Bindings[p] = nodes[i]
	}
	idx := len(ex.hier.Instances)
	ex.hier.AddInstance(in)

	for _, bl := range def.body {
		nested := isInstanceCard(bl.fields[0])
		var mapped []string
		if nested {
			// The nested expansion reads its card: it gets its own copy.
			mapped = append([]string(nil), bl.fields...)
		} else {
			ex.buf = append(ex.buf[:0], bl.fields...)
			mapped = ex.buf
		}
		mapped[0] = inst + "." + mapped[0]
		lo, hi := nodeFieldRange(bl.fields)
		for i := lo; i < hi && i < len(mapped); i++ {
			g, ok := nodeMap[mapped[i]]
			if !ok {
				g = inst + "." + mapped[i]
				if topLine, clash := ex.topNodes[g]; clash {
					return errf(bl.num, "internal node %s of subcircuit instance %s (master %q) collides with top-level node %q first referenced on line %d; rename the node or the instance",
						g, inst, subName, g, topLine)
				}
				nodeMap[mapped[i]] = g
				in.InternalNodes = append(in.InternalNodes, g)
			}
			mapped[i] = g
		}
		if nested {
			if err := ex.expand(mapped, bl.num, idx, depth+1, append(active, subName)); err != nil {
				return err
			}
			continue
		}
		if err := addElement(ex.c, mapped, bl.num, ex.models); err != nil {
			return err
		}
		in.Elems = append(in.Elems, mapped[0])
	}
	return nil
}
