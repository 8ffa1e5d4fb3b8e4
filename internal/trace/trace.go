// Package trace records engine states into wave sets with consistent
// signal naming: "v(node)" for node voltages and "i(Vname)" for voltage
// source branch currents. Every transient engine (SWEC, NR, MLA, PWL,
// EM) shares this recorder so their outputs are directly comparable.
package trace

import (
	"strings"

	"nanosim/internal/circuit"
	"nanosim/internal/stamp"
	"nanosim/internal/wave"
)

// Recorder samples MNA state vectors into named series.
type Recorder struct {
	set    *wave.Set
	series []*wave.Series // index = signal: node rows, then source branches
	rowOf  []int          // signal -> MNA row
	sigOf  []int          // MNA row -> signal, -1 when not recorded

	// Run-length compression (SetCompress): a sample equal to the row's
	// previous value is held back instead of appended; when the value
	// changes, the held sample is appended first so linear interpolation
	// between retained samples reproduces the flat run exactly. The
	// partitioned engine enables this — dormant blocks keep their rows
	// bit-frozen for thousands of steps, and recording each frozen step
	// into >1k series dominates the run otherwise.
	compress    bool
	tPrev, tNow float64 // the two latest sample times (compressed mode)
	lastT       []float64
	lastV       []float64
	held        []bool
}

// NewRecorder builds a recorder for the node voltages of sys; when
// currents is true, voltage-source branch currents are recorded too.
// A non-empty probes list restricts it to the signals named there
// (Records says which names those are; others are ignored), like a
// SPICE .save. The series keep the recorder's signal order, node rows
// then sources, whatever the order of probes, so a probed run's set is
// the full run's set with the unprobed series left out.
func NewRecorder(sys *stamp.System, currents bool, probes []string) *Recorder {
	var want []bool // per MNA row; nil records every signal
	nSignals := sys.NodeCount()
	if currents {
		nSignals += len(sys.VSources())
	}
	if len(probes) > 0 {
		want = make([]bool, sys.Dim())
		nSignals = 0
		for _, name := range probes {
			if row, ok := signalRow(sys, currents, name); ok && !want[row] {
				want[row] = true
				nSignals++
			}
		}
	}
	r := &Recorder{
		set:    wave.NewSetSized(nSignals),
		series: make([]*wave.Series, 0, nSignals),
		rowOf:  make([]int, 0, nSignals),
		sigOf:  make([]int, sys.Dim()),
	}
	for i := range r.sigOf {
		r.sigOf[i] = -1
	}
	add := func(name string, row int) {
		// Series buffers grow on first append: pre-sizing every series
		// at construction zeroes megabytes up front on large decks
		// (compressed dormant rows may only ever hold two samples).
		s := wave.NewSeries(name, 0)
		r.sigOf[row] = len(r.series)
		r.series = append(r.series, s)
		r.rowOf = append(r.rowOf, row)
		r.set.Add(s)
	}
	ckt := sys.Circuit()
	for row := 0; row < sys.NodeCount(); row++ {
		// Row convention: row = NodeID - 1 (stamp package contract).
		if want == nil || want[row] {
			add("v("+ckt.NodeName(circuit.NodeID(row+1))+")", row)
		}
	}
	if currents {
		for _, src := range sys.VSources() {
			if want == nil || want[src.Branch] {
				add("i("+src.V.Name()+")", src.Branch)
			}
		}
	}
	return r
}

// Records reports whether a recorder of ckt records the signal name:
// "v(node)" for a node other than ground, or, when currents is set,
// "i(Vname)" for a voltage source. Names match exactly, as wave.Set.Get
// does.
func Records(ckt *circuit.Circuit, currents bool, name string) bool {
	if node, ok := signalArg(name, "v("); ok {
		id, ok := ckt.LookupNode(node)
		return ok && id != circuit.Ground
	}
	if src, ok := signalArg(name, "i("); ok && currents {
		_, ok := ckt.Element(src).(*circuit.VSource)
		return ok
	}
	return false
}

// signalRow resolves a signal name to the MNA row a recorder of sys
// samples for it; it reports false where Records does.
func signalRow(sys *stamp.System, currents bool, name string) (int, bool) {
	if node, ok := signalArg(name, "v("); ok {
		id, ok := sys.Circuit().LookupNode(node)
		return int(id) - 1, ok && id != circuit.Ground
	}
	if src, ok := signalArg(name, "i("); ok && currents {
		for _, s := range sys.VSources() {
			if s.V.Name() == src {
				return s.Branch, true
			}
		}
	}
	return 0, false
}

// signalArg returns arg when name reads prefix + arg + ")".
func signalArg(name, prefix string) (string, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ")") {
		return "", false
	}
	return name[len(prefix) : len(name)-1], true
}

// SetCompress switches the recorder into run-length mode. Call before
// the first Sample, and call Flush once after the last one so held
// trailing samples reach the series.
func (r *Recorder) SetCompress(on bool) {
	r.compress = on
	if on && r.lastT == nil {
		n := len(r.series)
		r.lastT = make([]float64, n)
		r.lastV = make([]float64, n)
		r.held = make([]bool, n)
	}
}

// Sample appends the state at time t. Non-increasing sample times are a
// programming error in the engine and panic via wave.MustAppend.
func (r *Recorder) Sample(t float64, x []float64) {
	if r.compress {
		r.advance(t)
		for i, row := range r.rowOf {
			r.sampleCompressed(i, t, x[row])
		}
		return
	}
	for i, s := range r.series {
		s.MustAppend(t, x[r.rowOf[i]])
	}
}

// SampleRows is Sample for a state in which only the listed MNA rows
// can have changed since the previous sample; rows outside the list
// must hold the value they had at their last sample. In compressed mode
// it touches only the listed rows and yields exactly the series a full
// Sample would: an unlisted row is a flat run, and flat runs are
// recorded lazily — when the row next changes, or at Flush. Rows the
// recorder does not record (inductor branches, source branches without
// currents) are ignored. Without compression it records every row. The
// first sample of a run must be a full Sample.
func (r *Recorder) SampleRows(t float64, x []float64, rows []int) {
	if !r.compress {
		r.Sample(t, x)
		return
	}
	r.advance(t)
	for _, row := range rows {
		if i := r.sigOf[row]; i >= 0 {
			r.sampleCompressed(i, t, x[row])
		}
	}
}

// advance moves the compressed recorder's clock to sample time t.
func (r *Recorder) advance(t float64) { r.tPrev, r.tNow = r.tNow, t }

// sampleCompressed is one signal of run-length recording at time t.
func (r *Recorder) sampleCompressed(i int, t, v float64) {
	s := r.series[i]
	if s.Len() == 0 {
		s.MustAppend(t, v)
		r.lastT[i], r.lastV[i], r.held[i] = t, v, false
		return
	}
	r.catchUp(i, r.tPrev)
	if v == r.lastV[i] {
		// Flat run: hold the sample; Flush or the next change emits it.
		r.lastT[i], r.held[i] = t, true
		return
	}
	if r.held[i] {
		// Close the flat run at its true end so interpolation between
		// the retained samples stays exact.
		s.MustAppend(r.lastT[i], r.lastV[i])
	}
	s.MustAppend(t, v)
	r.lastT[i], r.lastV[i], r.held[i] = t, v, false
}

// catchUp extends signal i's flat run to sample time t when SampleRows
// skipped it since its last sample: a full Sample at each skipped time
// would have held the unchanged value there.
func (r *Recorder) catchUp(i int, t float64) {
	if r.lastT[i] < t {
		r.lastT[i], r.held[i] = t, true
	}
}

// Flush appends any held run-end samples (compressed mode), extending
// every flat run to the last sample time first; call once after the
// final Sample.
func (r *Recorder) Flush() {
	if !r.compress {
		return
	}
	for i, s := range r.series {
		if s.Len() == 0 {
			continue
		}
		r.catchUp(i, r.tNow)
		if r.held[i] {
			s.MustAppend(r.lastT[i], r.lastV[i])
			r.held[i] = false
		}
	}
}

// Set returns the recorded wave set.
func (r *Recorder) Set() *wave.Set { return r.set }

// OPWaves renders a DC operating point as single-sample "v(node)"
// series in node order, so scalar solutions flow through the same wave
// plumbing as transients (vary aggregation, serve results, golden
// records). x is the MNA state with the usual row = NodeID-1 layout.
func OPWaves(ckt *circuit.Circuit, x []float64) *wave.Set {
	set := wave.NewSet()
	for id := 1; id < ckt.NumNodes(); id++ {
		s := wave.NewSeries("v("+ckt.NodeName(circuit.NodeID(id))+")", 1)
		s.MustAppend(0, x[id-1])
		if err := set.Add(s); err != nil {
			// Node names are unique by construction.
			panic(err)
		}
	}
	return set
}
