package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"nanosim"
	"nanosim/internal/circuit"
	"nanosim/internal/netparse"
	"nanosim/internal/trace"
)

// emSourceDeck drives an Euler-Maruyama deck through a voltage source,
// so its .em waves carry the i(V1) branch current, in the single run
// and in every trial of its .mc em batch (no .print: every signal is
// aggregated).
const emSourceDeck = `* noisy divider with a voltage source
V1 in 0 0.5
R1 in x 1k
R2 x 0 2k
C1 x 0 1p
IN 0 x DC 0 NOISE=0.5n
.em 2n 100 SEED=11
.mc 6 em SEED=4
.vary R1 DEV=5%
.end
`

// batchRuleDeck has .tran, .em, '.mc 4 em' and .step cards: the .mc
// keyword picks the job of the .mc batch only, and the .step sweep runs
// the first .tran.
const batchRuleDeck = `* batch job rule
V1 in 0 0.8
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
.model rtdmod RTD
.tran 0.25n 5n
.em 5n 50 SEED=3
.mc 4 em SEED=9
.vary N1(A) DEV=5%
.step R1 400 800 3
.print v(d)
.end
`

// servedKinds lists every kind the service runs on a deck: dcop always,
// each single-run card kind it has, mc with .vary cards, step with .step
// cards. A deck with islands or tunnel junctions runs only on the
// single-electron engine: set, and a batch whose trials run '.set tran'.
func servedKinds(deck *netparse.Deck) []string {
	kinds := []string{"dcop"}
	wire := map[string]string{"tran": "tran", "dc": "dc", "ac": "ac", "em": "em", "settran": "set"}
	for _, a := range deck.Analyses {
		if k := wire[a.Kind]; k != "" && !slices.Contains(kinds, k) {
			kinds = append(kinds, k)
		}
	}
	if len(deck.Varies) > 0 {
		kinds = append(kinds, "mc")
	}
	if len(deck.Steps) > 0 {
		kinds = append(kinds, "step")
	}
	if !hasSETElements(deck) {
		return kinds
	}
	mcKeyword := ""
	if deck.MC != nil {
		mcKeyword = deck.MC.Analysis
	}
	return slices.DeleteFunc(kinds, func(k string) bool {
		switch k {
		case "set":
			return false
		case "mc":
			return batchJob(deck, mcKeyword).Analysis != "set"
		case "step":
			return batchJob(deck, "").Analysis != "set"
		}
		return true
	})
}

// hasSETElements reports whether a deck has an island or a tunnel
// junction, which no MNA engine stamps.
func hasSETElements(deck *netparse.Deck) bool {
	for _, e := range deck.Circuit.Elements() {
		switch e.(type) {
		case *circuit.Island, *circuit.TunnelJunction:
			return true
		}
	}
	return false
}

// firstCard returns the deck's first card of a kind, or nil.
func firstCard(deck *netparse.Deck, kind string) *netparse.Analysis {
	for i := range deck.Analyses {
		if deck.Analyses[i].Kind == kind {
			return &deck.Analyses[i]
		}
	}
	return nil
}

// Library options as docs/API.md and docs/NETLIST.md document them,
// written out independently of the service's own mapping.

func tranOptions(deck *netparse.Deck, a *netparse.Analysis) nanosim.TranOptions {
	opt := nanosim.TranOptions{TStop: a.TStop, HInit: a.TStep, RecordCurrents: true}
	if o := deck.Options; o != nil && o.Partition {
		opt.Partition = &nanosim.PartitionOptions{GCouple: o.GCouple, NoDormancy: o.NoDormancy}
	}
	return opt
}

func emOptions(a *netparse.Analysis) nanosim.NoiseOptions {
	return nanosim.NoiseOptions{TStop: a.TStop, Steps: a.Steps, Seed: a.Seed, RecordCurrents: true}
}

func setOptions(a *netparse.Analysis) nanosim.SETOptions {
	return nanosim.SETOptions{TStep: a.TStep, TStop: a.TStop, Temp: a.Temp, Seed: a.Seed}
}

// batchJob is the documented per-trial job: the .mc keyword for .mc
// batches, else the first .tran, else .em, else '.set tran', else .op.
func batchJob(deck *netparse.Deck, keyword string) nanosim.VaryJob {
	if keyword == "" {
		switch {
		case firstCard(deck, "tran") != nil:
			keyword = "tran"
		case firstCard(deck, "em") != nil:
			keyword = "em"
		case firstCard(deck, "settran") != nil:
			keyword = "set"
		}
	}
	switch keyword {
	case "tran":
		return nanosim.VaryJob{Analysis: "tran", Tran: tranOptions(deck, firstCard(deck, "tran"))}
	case "em":
		return nanosim.VaryJob{Analysis: "em", EM: emOptions(firstCard(deck, "em"))}
	case "set":
		return nanosim.VaryJob{Analysis: "set", SET: setOptions(firstCard(deck, "settran"))}
	}
	return nanosim.VaryJob{Analysis: "op"}
}

// libraryAnswer is what the library answers for one served kind: the
// stream payload, the result's final map or node map, and the batch
// outcomes.
type libraryAnswer struct {
	waves *nanosim.WaveSet
	final map[string]float64
	nodes map[string]float64
	mc    *nanosim.VaryResult
	step  *nanosim.ParamSweepResult
}

func runLibrary(t *testing.T, src, kind string) (libraryAnswer, error) {
	t.Helper()
	deck, err := netparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ckt := deck.Circuit
	var ans libraryAnswer
	switch kind {
	case "dcop":
		r, err := nanosim.OperatingPoint(ckt, nanosim.DCOptions{})
		if err != nil {
			return ans, err
		}
		ans.waves = trace.OPWaves(ckt, r.X)
		ans.nodes = map[string]float64{}
		for _, n := range ckt.NodeNames() {
			ans.nodes[n] = r.X[int(ckt.Node(n))-1]
		}
	case "tran":
		r, err := nanosim.Transient(ckt, tranOptions(deck, firstCard(deck, "tran")))
		if err != nil {
			return ans, err
		}
		ans.waves = r.Waves
	case "dc":
		a := firstCard(deck, "dc")
		r, err := nanosim.Sweep(ckt, a.Src, a.From, a.To, a.Points, a.Device, nanosim.DCOptions{RefineIters: 3})
		if err != nil {
			return ans, err
		}
		ans.waves = r.Waves
	case "ac":
		a := firstCard(deck, "ac")
		r, err := nanosim.AC(ckt, nanosim.ACOptions{Grid: a.ACGrid, Points: a.Points, FStart: a.From, FStop: a.To})
		if err != nil {
			return ans, err
		}
		ans.waves = r.Waves
	case "em":
		r, err := nanosim.Stochastic(ckt, emOptions(firstCard(deck, "em")))
		if err != nil {
			return ans, err
		}
		ans.waves = r.Waves
	case "set":
		r, err := nanosim.SETTransient(ckt, setOptions(firstCard(deck, "settran")))
		if err != nil {
			return ans, err
		}
		ans.waves = r.Waves
	case "mc":
		opt := nanosim.VaryOptions{Job: batchJob(deck, deck.MC.Analysis), Signals: deck.Prints, Workers: 1,
			Trials: deck.MC.Trials, Seed: deck.MC.Seed}
		for _, v := range deck.Varies {
			dist, err := nanosim.ParseVaryDist(v.Dist)
			if err != nil {
				t.Fatal(err)
			}
			opt.Specs = append(opt.Specs, nanosim.VarySpec{Elem: v.Elem, Param: v.Param, Dist: dist, Sigma: v.Sigma, Rel: v.Rel, Lot: v.Lot})
		}
		for _, l := range deck.Limits {
			opt.Limits = append(opt.Limits, nanosim.VaryLimit{Signal: l.Signal, Stat: l.Stat, Lo: l.Lo, Hi: l.Hi})
		}
		if ans.mc, err = nanosim.Vary(ckt, opt); err != nil {
			return ans, err
		}
		ans.waves = nanosim.NewWaveSet()
		for _, sg := range ans.mc.Signals {
			for _, s := range []*nanosim.Series{sg.Mean, sg.QLo, sg.QHi} {
				if s != nil {
					if err := ans.waves.Add(s); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return ans, nil
	case "step":
		opt := nanosim.ParamSweepOptions{Job: batchJob(deck, ""), Signals: deck.Prints, Workers: 1}
		for _, s := range deck.Steps {
			opt.Axes = append(opt.Axes, nanosim.ParamSweepAxis{Elem: s.Elem, Param: s.Param, From: s.From, To: s.To, Points: s.Points, Log: s.Log})
		}
		ans.step, err = nanosim.ParamSweep(ckt, opt)
		return ans, err
	default:
		t.Fatalf("no library call for kind %q", kind)
	}
	if kind == "tran" || kind == "em" || kind == "set" {
		ans.final = map[string]float64{}
		for _, n := range ans.waves.Names() {
			v := ans.waves.Get(n).Final()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ans.final[n] = v
		}
	}
	return ans, nil
}

// streamedSeries decodes a job's NDJSON stream: signal names in arrival
// order, every raw sample, and the body as read.
func streamedSeries(t *testing.T, ts *httptest.Server, id string) ([]string, map[string]*trace.Chunk, []byte) {
	t.Helper()
	code, body := getRaw(t, ts.URL+"/v1/jobs/"+id+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream %s: HTTP %d", id, code)
	}
	var names []string
	series := map[string]*trace.Chunk{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c trace.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		s := series[c.Signal]
		if s == nil {
			s = &trace.Chunk{Signal: c.Signal}
			series[c.Signal] = s
			names = append(names, c.Signal)
		}
		s.T, s.V = append(s.T, c.T...), append(s.V, c.V...)
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return names, series, body
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameMap(t *testing.T, label, what string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d entries, library %d", label, what, len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || !sameBits(g, v) {
			t.Fatalf("%s: %s[%s] = %v, library %v", label, what, k, g, v)
		}
	}
}

// libraryDecks returns the decks TestServeMatchesLibraryDeterministic
// submits, in order: a voltage-sourced .em deck, a deck mixing .tran,
// .em, '.mc em' and .step, every testdata deck, and two decks the
// service once queued and then failed (a junction deck with a .tran
// card, a .vary with an unknown DIST=).
func libraryDecks(t *testing.T) (names []string, decks map[string]string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	decks = map[string]string{"em-source": emSourceDeck, "batch-rule": batchRuleDeck}
	names = []string{"em-source", "batch-rule"}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		decks[filepath.Base(p)] = string(src)
		names = append(names, filepath.Base(p))
	}
	for _, bad := range []struct{ name, from, old, new string }{
		{"junction-tran", "set_double_junction.sp", ".end\n", ".tran 0.2n 40n\n.end\n"},
		{"mc-gaussian", "mc_rtd_inverter.sp", "DEV=5%", "DEV=5% DIST=GAUSSIAN"},
	} {
		src := strings.Replace(decks[bad.from], bad.old, bad.new, 1)
		if src == decks[bad.from] {
			t.Fatalf("%s: %s has no %q to edit", bad.name, bad.from, bad.old)
		}
		decks[bad.name] = src
		names = append(names, bad.name)
	}
	return names, decks
}

// TestServeMatchesLibraryDeterministic checks that nanosimd answers what
// the library answers: for every testdata deck (plus a voltage-sourced
// .em deck and a deck mixing .tran, .em, '.mc em' and .step) and every
// kind the service runs on it, every streamed raw sample is
// bit-identical to the library call with the documented options, and so
// is the result's final map (node map for dcop, final table for step,
// quantiles for mc). Where the library fails, the job must fail too.
//
// Every stream body is byte-identical four ways: from a memory-only
// server, from a data-dir server, from that data-dir server after a
// restart, and from trace.WriteNDJSON of the library's waves.
//
// It also checks that bad input never reaches an engine: every deck,
// plus two the service once queued and then failed (a junction deck
// with a .tran card, a .vary with an unknown DIST=), is submitted as
// every kind, and a kind the deck cannot run must be refused with a 4xx
// at submit. A job that fails must not fail on an element its engine
// cannot stamp or on an unknown distribution.
func TestServeMatchesLibraryDeterministic(t *testing.T) {
	names, decks := libraryDecks(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	dataDir := t.TempDir()
	ds, dts := newTestServer(t, Config{Workers: 1, DataDir: dataDir})
	bodies := map[string][]byte{} // data-dir job id -> stream body
	for _, name := range names {
		src := decks[name]
		var served []string
		if deck, err := netparse.Parse(src); err == nil {
			served = servedKinds(deck)
		}
		for _, kind := range []string{"dcop", "dc", "ac", "tran", "em", "set", "mc", "step"} {
			label := name + "/" + kind
			if !slices.Contains(served, kind) {
				if code, _, _ := submitFull(t, ts, SubmitRequest{Deck: src, Analysis: kind}, nil); code < 400 || code >= 500 {
					t.Fatalf("%s: HTTP %d, want a 4xx: the deck cannot run this kind", label, code)
				}
				continue
			}
			want, libErr := runLibrary(t, src, kind)
			info := submit(t, ts, SubmitRequest{Deck: src, Analysis: kind}, http.StatusAccepted)
			if info.Analysis != kind {
				t.Fatalf("%s: resolved %q", label, info.Analysis)
			}
			if libErr != nil {
				done := waitFinished(t, ts, info.ID)
				if done.State != StateFailed {
					t.Fatalf("%s: library fails (%v), job ended %s", label, libErr, done.State)
				}
				if strings.Contains(done.Error, "unsupported element") || strings.Contains(done.Error, "unknown distribution") {
					t.Fatalf("%s: job reached an engine with input submit should refuse: %s", label, done.Error)
				}
				continue
			}
			if done := waitState(t, ts, info.ID, StateDone); done.Error != "" {
				t.Fatalf("%s: %s", label, done.Error)
			}
			res := fetchResult(t, ts, info.ID)
			if kind == "step" {
				requireSameStep(t, label, res.Step, want.step)
				continue
			}
			got, series, body := streamedSeries(t, ts, info.ID)
			var lib bytes.Buffer
			if _, err := trace.WriteNDJSON(&lib, want.waves, 0); err != nil {
				t.Fatalf("%s: encoding the library waves: %v", label, err)
			}
			if !bytes.Equal(body, lib.Bytes()) {
				t.Fatalf("%s: memory-only stream (%d bytes) differs from the library's NDJSON (%d bytes)", label, len(body), lib.Len())
			}
			dinfo := submit(t, dts, SubmitRequest{Deck: src, Analysis: kind}, http.StatusAccepted)
			waitState(t, dts, dinfo.ID, StateDone)
			if code, dbody := getRaw(t, dts.URL+"/v1/jobs/"+dinfo.ID+"/stream"); code != http.StatusOK || !bytes.Equal(dbody, body) {
				t.Fatalf("%s: data-dir stream HTTP %d, %d bytes; memory-only %d bytes", label, code, len(dbody), len(body))
			}
			bodies[dinfo.ID] = body
			if !slices.Equal(got, want.waves.Names()) {
				t.Fatalf("%s: streamed %v, library records %v", label, got, want.waves.Names())
			}
			for _, n := range got {
				ws, gs := want.waves.Get(n), series[n]
				if len(gs.T) != ws.Len() || len(gs.V) != ws.Len() {
					t.Fatalf("%s: %s streamed %d samples, library %d", label, n, len(gs.T), ws.Len())
				}
				for i := range ws.T {
					if !sameBits(gs.T[i], ws.T[i]) || !sameBits(gs.V[i], ws.V[i]) {
						t.Fatalf("%s: %s sample %d: (%g, %g), library (%g, %g)", label, n, i, gs.T[i], gs.V[i], ws.T[i], ws.V[i])
					}
				}
			}
			switch kind {
			case "tran":
				requireSameMap(t, label, "final", res.Tran.Final, want.final)
			case "em":
				requireSameMap(t, label, "final", res.EM.Final, want.final)
			case "set":
				requireSameMap(t, label, "final", res.Set.Final, want.final)
			case "dcop":
				requireSameMap(t, label, "nodes", res.OP.Nodes, want.nodes)
			case "mc":
				requireSameMC(t, label, res.MC, want.mc)
			}
		}
	}
	if len(bodies) == 0 {
		t.Fatal("no data-dir stream was compared")
	}
	dts.Close()
	ds.Close()
	_, rts := newTestServer(t, Config{Workers: 1, DataDir: dataDir})
	for id, want := range bodies {
		if code, got := getRaw(t, rts.URL+"/v1/jobs/"+id+"/stream"); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s after restart: HTTP %d, %d bytes; before %d bytes", id, code, len(got), len(want))
		}
	}
}

// waitFinished polls a job until it reaches any terminal state.
func waitFinished(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var info JobInfo
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if terminal(info.State) {
			return info
		}
	}
	t.Fatalf("job %s never finished", id)
	return JobInfo{}
}

func requireSameMC(t *testing.T, label string, got *MCResult, want *nanosim.VaryResult) {
	t.Helper()
	if got.Trials != want.Trials || got.Failed != want.Failed || len(got.Stats) != len(want.Signals) {
		t.Fatalf("%s: %d trials, %d failed, %d signals; library %d, %d, %d",
			label, got.Trials, got.Failed, len(got.Stats), want.Trials, want.Failed, len(want.Signals))
	}
	for i, sg := range want.Signals {
		q05, _ := sg.Quantile(0.05)
		q50, _ := sg.Quantile(0.5)
		q95, _ := sg.Quantile(0.95)
		st := got.Stats[i]
		if st.Name != sg.Name || !sameBits(st.Q05, q05) || !sameBits(st.Median, q50) || !sameBits(st.Q95, q95) {
			t.Fatalf("%s: %s quantiles %v/%v/%v, library %s %v/%v/%v", label, st.Name, st.Q05, st.Median, st.Q95, sg.Name, q05, q50, q95)
		}
	}
}

func requireSameStep(t *testing.T, label string, got *StepResult, want *nanosim.ParamSweepResult) {
	t.Helper()
	if got.Failed != want.Failed || len(got.Values) != want.Runs() {
		t.Fatalf("%s: %d points, %d failed; library %d, %d", label, len(got.Values), got.Failed, want.Runs(), want.Failed)
	}
	signals := append([]string(nil), want.Signals...)
	sort.Strings(signals)
	if len(got.Final) != len(signals) {
		t.Fatalf("%s: %d final columns, library %d", label, len(got.Final), len(signals))
	}
	for _, s := range signals {
		col := got.Final[s]
		if len(col) != want.Runs() {
			t.Fatalf("%s: final %s has %d rows, library %d", label, s, len(col), want.Runs())
		}
		for r, v := range want.Final[s] {
			if math.IsNaN(v) != (col[r] == nil) || (col[r] != nil && !sameBits(*col[r], v)) {
				t.Fatalf("%s: final %s row %d: %v, library %v", label, s, r, col[r], v)
			}
		}
	}
	for r, row := range want.Values {
		for i, v := range row {
			if !sameBits(got.Values[r][i], v) {
				t.Fatalf("%s: grid value [%d][%d] %v, library %v", label, r, i, got.Values[r][i], v)
			}
		}
	}
}
