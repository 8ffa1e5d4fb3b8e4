package circuit

// Hierarchy is the sidecar netparse attaches to a flattened circuit so
// downstream consumers can ask "which elements came from which
// subcircuit instance, and which instances share a master?" without
// re-deriving it from name prefixes. The flat expansion stays the
// semantic source of truth — the sidecar adds provenance, it never
// changes what was expanded: the hierarchical compiler (internal/hier)
// uses it to compile each master once and instantiate by offset, and
// the vary/mc path resolver uses it to bind `X1.X2.R1` device paths to
// real instances instead of trusting the string convention.
type Hierarchy struct {
	// Masters indexes the deck's subcircuit definitions by their
	// lowercase names, including masters that were never instantiated.
	Masters map[string]*Master
	// Instances lists every expanded instance in expansion order
	// (pre-order: a parent precedes its nested instances).
	Instances []*Instance

	byPath map[string]*Instance
}

// Master describes one .subckt definition.
type Master struct {
	// Name is the lowercase subcircuit name.
	Name string
	// Ports lists the port node names in declaration order.
	Ports []string
	// Hash is a stable content hash of the master body — ports, logical
	// body lines, and (recursively) the hashes of nested masters it
	// instantiates — so the serve-side template cache can share compiled
	// masters across decks that carry the same subcircuit library under
	// possibly different surrounding netlists.
	Hash string
	// Uses counts expanded instances of this master across the deck
	// (nested expansions included).
	Uses int
	// Line is the .subckt source line.
	Line int
}

// Instance is one row of the instance table: an expanded X card.
type Instance struct {
	// Path is the hierarchical prefix ("X1", "X1.X2"): every flattened
	// element or internal-node name owned by the instance is
	// Path + "." + its master-local name.
	Path string
	// Master is the lowercase master name.
	Master string
	// Parent indexes Instances; -1 for top-level instances.
	Parent int
	// Bindings maps master port names to the global (flattened) node
	// names bound on the X card, in the master's port order semantics.
	Bindings map[string]string
	// Elems lists the flattened names of the elements this instance owns
	// directly (elements of nested instances belong to those instances).
	Elems []string
	// InternalNodes lists the flattened names of the nodes this
	// instance's expansion created (ports excluded).
	InternalNodes []string
	// Line is the X-card source line.
	Line int
}

// Instance resolves a hierarchical path ("X1.X2") to its instance, nil
// when no such instance was expanded.
func (h *Hierarchy) Instance(path string) *Instance {
	if h == nil {
		return nil
	}
	if h.byPath == nil {
		h.byPath = make(map[string]*Instance, len(h.Instances))
		for _, in := range h.Instances {
			h.byPath[in.Path] = in
		}
	}
	return h.byPath[path]
}

// AddInstance appends an instance row (netparse expansion hook).
func (h *Hierarchy) AddInstance(in *Instance) {
	h.Instances = append(h.Instances, in)
	if h.byPath != nil {
		h.byPath[in.Path] = in
	}
}

// InstancesOf returns the instances of a master, in expansion order.
func (h *Hierarchy) InstancesOf(master string) []*Instance {
	if h == nil {
		return nil
	}
	var out []*Instance
	for _, in := range h.Instances {
		if in.Master == master {
			out = append(out, in)
		}
	}
	return out
}
