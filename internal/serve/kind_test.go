package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// setMapThenTranDeck opens with a '.set map' card, which the service
// does not run; inference must read past it to the .tran.
const setMapThenTranDeck = `* set map before tran
Vg g 0 0
Vd d 0 1m
J1 d m tj
J2 m 0 tj
Cg g m 1a
.model tj TJ C=1a R=1meg
.island m
.set map Vg 0 0.25 11 Vd 1m 4m 2 TEMP=4.2
.tran 0.1n 5n
.end
`

// TestSubmitInfersKindFromEveryCard pins the kind a submission without
// an analysis resolves to: the .mc batch, else the .step sweep, else the
// first card in deck order that the service runs. A deck with no such
// card is refused with a message naming the cards it has.
func TestSubmitInfersKindFromEveryCard(t *testing.T) {
	want := map[string]string{ // deck -> inferred kind ("" = refused)
		"ac_rc_filter.sp":        "ac",
		"fet_rtd_inverter.sp":    "dcop",
		"mc_rtd_inverter.sp":     "mc",
		"nested_rtd_pipeline.sp": "tran",
		"noisy_rc.sp":            "em",
		"part_rtd_pipeline.sp":   "tran",
		"rtd_divider.sp":         "dcop",
		"set_double_junction.sp": "set",
		"set_transistor.sp":      "",
		"step_rtd_divider.sp":    "step",
		"set-map-then-tran":      "tran",
	}
	decks := map[string]string{"set-map-then-tran": setMapThenTranDeck}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		decks[filepath.Base(p)] = string(src)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, src := range decks {
		kind, ok := want[name]
		if !ok {
			t.Errorf("%s: no inferred kind in the table; add one", name)
			continue
		}
		body, _ := json.Marshal(SubmitRequest{Deck: src})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		var e ErrorResponse
		if resp.StatusCode == http.StatusAccepted {
			err = json.NewDecoder(resp.Body).Decode(&info)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&e)
		}
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case kind == "":
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, ".set map") || !strings.Contains(e.Error, "does not run") {
				t.Errorf("%s: HTTP %d %q, want 400 naming the .set map card the service does not run", name, resp.StatusCode, e.Error)
			}
		case resp.StatusCode != http.StatusAccepted || info.Analysis != kind:
			t.Errorf("%s: HTTP %d, kind %q (%s), want %q", name, resp.StatusCode, info.Analysis, e.Error, kind)
		}
	}
}
