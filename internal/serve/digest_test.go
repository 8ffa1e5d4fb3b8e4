package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nanosim/internal/hier/hiertest"
	"nanosim/internal/netparse"
)

// streamDigestFile holds the committed stream digests of
// TestStreamDigests, one line per job: deck/kind, then the stream's
// HTTP status and the SHA-256 of its body, or "failed" for a job that
// fails.
var streamDigestFile = filepath.Join("..", "..", "testdata", "digest", "streams.txt")

// serveMixedDecks are decks shaped like perfbench's serve-mixed load,
// with its jitter fixed: the RTD divider's transient and sweep, an RC
// low-pass AC with dB, phase and output noise, a noisy RC under
// Euler-Maruyama, a double tunnel junction, an inverter yield batch,
// a divider grid, and three partitioned decks sharing one .subckt
// master.
func serveMixedDecks() (names []string, decks map[string]string) {
	divider := func(analysis string) string {
		return "V1 in 0 PULSE(0 1.5 5n 2n 2n 40n)\nR1 in d 101.3\nN1 d 0 rtdmod\nCD d 0 10f\n.model rtdmod RTD\n" +
			analysis + "\n.print v(d)\n.end\n"
	}
	decks = map[string]string{
		"mixed-tran-divider": "* rtd divider transient\n" + divider(".tran 0.2n 50n"),
		"mixed-dc-divider":   "* rtd divider sweep\n" + divider(".dc V1 0 1.5 61 N1"),
		"mixed-ac-filter":    "* rc lowpass\nVIN in 0 DC 0 AC 1 0\nR1 in out 0.9731k\nC1 out 0 1n\nIB 0 out DC 10u NOISE=0.5n\n.ac dec 20 1.59k 15.9meg\n.print vdb(out) vp(out) onoise(out)\n.end\n",
		"mixed-em-noisy-rc":  "* noisy rc\nIN 0 x DC 50u NOISE=0.8n\nR1 x 0 1.021k\nC1 x 0 1p\n.em 1n 200 SEED=417\n.end\n",
		"mixed-set-junction": "* double tunnel junction\nVdd vdd 0 0.3\nRL vdd d 0.9874meg\nJ1 d m tj\nJ2 m 0 tj\n.model tj TJ C=1a R=1meg\n.island m\n.set tran 0.2n 20n SEED=86 TEMP=4.2\n.print i(d) n(m)\n.end\n",
		"mixed-mc-inverter":  "* inverter yield\nVDD vdd 0 1.2\nVIN in 0 1.2\nNL vdd out rtdload\nND out 0 rtdmod\nM1 out in 0 nmod\nCL out 0 20.6f\nCIN in 0 1f\n.model rtdmod RTD\n.model rtdload RTD AREA=1.5\n.model nmod NMOS KP=5m VTO=0.5 W=1 L=1\n.tran 1n 60n\n.mc 8 tran SEED=731\n.vary N*(A) DEV=5%\n.vary M1(VTO) DEV=3%\n.limit v(out) final * 0.184\n.print v(out)\n.end\n",
		"mixed-step-divider": "* rtd divider grid\nV1 in 0 0.8\nR1 in d 600\nN1 d 0 rtdmod\nCD d 0 10f\n.model rtdmod RTD\n.op\n.step R1 203.1 1187 6\n.step N1(AREA) 1 2 2\n.print v(d)\n.end\n",
	}
	names = []string{"mixed-tran-divider", "mixed-dc-divider", "mixed-ac-filter", "mixed-em-noisy-rc",
		"mixed-set-junction", "mixed-mc-inverter", "mixed-step-divider"}
	// A 3x3 RTD mesh per instance, as serve-mixed's .subckt family has.
	var master strings.Builder
	master.WriteString(".subckt cell vdd in out\n")
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			n := fmt.Sprintf("n%d%d", r, c)
			fmt.Fprintf(&master, "N%d%d %s 0 rtd\nC%d%d %s 0 %df\n", r, c, n, r, c, n, 5+r+c)
			if c > 0 {
				fmt.Fprintf(&master, "RH%d%d n%d%d %s %d\n", r, c, r, c-1, n, 300+40*r)
			}
			if r > 0 {
				fmt.Fprintf(&master, "RV%d%d n%d%d %s %d\n", r, c, r-1, c, n, 350+30*c)
			}
		}
	}
	master.WriteString("RIN in n00 200\nRS vdd n11 900\nROUT n22 out 150\nCO out 0 8f\n.ends\n")
	for _, n := range []int{2, 3, 4} {
		var b strings.Builder
		fmt.Fprintf(&b, "* subckt family %d stages\n.options partition\nVDD vdd 0 0.55\nVIN drv 0 PULSE(0.1 0.9 0.5n 0.5n 0.5n 3n 8n)\n", n)
		prev := "drv"
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "X%d vdd %s s%d cell\n", i, prev, i)
			prev = fmt.Sprintf("s%d", i)
		}
		fmt.Fprintf(&b, "RL %s 0 1meg\n%s.model rtd RTD\n.tran 0.1n 4n\n.print v(s0) v(%s)\n.end\n", prev, master.String(), prev)
		name := fmt.Sprintf("mixed-subckt-%d", n)
		decks[name] = b.String()
		names = append(names, name)
	}
	return names, decks
}

// TestStreamDigests pins the bytes nanosimd streams: every (deck, kind)
// pair of TestServeMatchesLibraryDeterministic, the serve-mixed-shaped
// decks and three generated mixed-input decks run partitioned (whose
// blocks record distinct, compressed time axes) must stream a body
// whose SHA-256 matches the committed one. The jobs run on a data-dir
// server, so the bodies come from the spill. The library comparison
// encodes both sides with the same encoder, so it cannot see a format
// change that is consistent; this table can.
//
// After an intended change of stream bytes, the failure log prints the
// full table to commit in place of the old one.
func TestStreamDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("digests pin adaptive step counts, which fused multiply-add can move; they are recorded on linux/amd64")
	}
	want := map[string]string{}
	if src, err := os.ReadFile(streamDigestFile); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
			if name, sum, ok := strings.Cut(line, " "); ok {
				want[name] = sum
			}
		}
	} else {
		t.Errorf("%v", err)
	}

	type job struct {
		label string
		req   SubmitRequest
	}
	var jobs []job
	names, decks := libraryDecks(t)
	mixedNames, mixed := serveMixedDecks()
	names = append(names, mixedNames...)
	for name, src := range mixed {
		decks[name] = src
	}
	for _, name := range names {
		deck, err := netparse.Parse(decks[name])
		if err != nil {
			continue
		}
		for _, kind := range servedKinds(deck) {
			jobs = append(jobs, job{name + "/" + kind, SubmitRequest{Deck: decks[name], Analysis: kind}})
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		jobs = append(jobs, job{fmt.Sprintf("hier-mixed-%d/tran", seed),
			SubmitRequest{Deck: hiertest.MixedDeck(seed), Analysis: "tran", Partition: &PartitionRequest{}}})
	}

	_, ts := newTestServer(t, Config{Workers: 2, DataDir: t.TempDir()})
	ids := make([]string, len(jobs))
	for i, jb := range jobs {
		ids[i] = submit(t, ts, jb.req, http.StatusAccepted).ID
	}
	var table strings.Builder
	labels := make([]string, 0, len(jobs))
	for i, jb := range jobs {
		if slices.Contains(labels, jb.label) {
			t.Fatalf("%s listed twice", jb.label)
		}
		labels = append(labels, jb.label)
		got := "failed"
		if info := waitFinished(t, ts, ids[i]); info.State == StateDone {
			code, body := getRaw(t, ts.URL+"/v1/jobs/"+ids[i]+"/stream")
			sum := sha256.Sum256(body)
			got = fmt.Sprintf("%d %s", code, hex.EncodeToString(sum[:]))
		}
		fmt.Fprintf(&table, "%s %s\n", jb.label, got)
		switch w, ok := want[jb.label]; {
		case !ok:
			t.Errorf("%s: no committed digest", jb.label)
		case w != got:
			t.Errorf("%s: stream changed:\n got %s\nwant %s", jb.label, got, w)
		}
	}
	if len(want) != len(jobs) {
		t.Errorf("%d committed digests, %d jobs", len(want), len(jobs))
	}
	if t.Failed() {
		t.Logf("digests of this tree (%s):\n%s", streamDigestFile, table.String())
	}
}
