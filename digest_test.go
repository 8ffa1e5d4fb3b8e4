package nanosim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nanosim"
	"nanosim/internal/core"
	"nanosim/internal/digest"
	"nanosim/internal/flop"
	"nanosim/internal/hier/hiertest"
)

// digestFile holds the committed run digests of TestTransientDigests,
// one line per case: name, digest.Sum.Numbers, digest.Sum.All.
var digestFile = filepath.Join("testdata", "digest", "partitioned.txt")

// digestDecks lists the decks whose partitioned transients are pinned by
// digest: every testdata deck with a .tran card, perfbench's pipeline
// shape and generated mixed-input decks.
func digestDecks(t *testing.T) (names []string, decks map[string]string) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.sp"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	decks = map[string]string{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := partitionedTranOptions(t, string(src)); ok {
			names = append(names, filepath.Base(p))
			decks[filepath.Base(p)] = string(src)
		}
	}
	decks["pipeline-256"] = strings.TrimSuffix(hiertest.PipelineDeck(256, 4, 4), ".end\n") + ".tran 0.1n 10n\n.end\n"
	names = append(names, "pipeline-256")
	for _, seed := range []int64{1, 2, 3} {
		name := fmt.Sprintf("mixed-%d", seed)
		decks[name] = hiertest.MixedDeck(seed)
		names = append(names, name)
	}
	return names, decks
}

// digestVariants are the option sets each deck runs with.
var digestVariants = []struct {
	name string
	set  func(*nanosim.TranOptions)
}{
	{"plain", func(*nanosim.TranOptions) {}},
	{"correctors", func(o *nanosim.TranOptions) { o.Correctors = 1 }},
	{"trap", func(o *nanosim.TranOptions) { o.Trapezoidal = true }},
	{"nodorm", func(o *nanosim.TranOptions) {
		p := *o.Partition
		p.NoDormancy = true
		o.Partition = &p
	}},
}

// TestTransientDigests pins partitioned transients bit for bit: each
// deck, under each option set, through core.Transient (flat) and
// nanosim.Transient (hierarchical compile), must reproduce its committed
// digest — every raw sample, the final state, Stats with and without
// flops and the caller's flop counter. A run that fails must fail the
// same way.
//
// After an intended change of results, the failure log prints the full
// table to commit in place of the old one.
func TestTransientDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("digests pin adaptive step counts, which fused multiply-add can move; they are recorded on linux/amd64")
	}
	want := map[string]string{}
	if src, err := os.ReadFile(digestFile); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
			if name, sums, ok := strings.Cut(line, " "); ok {
				want[name] = sums
			}
		}
	} else {
		t.Errorf("%v", err)
	}
	names, decks := digestDecks(t)
	var table strings.Builder
	for _, name := range names {
		for _, v := range digestVariants {
			for _, route := range []string{"core", "hier"} {
				id := name + "/" + v.name + "/" + route
				got := runDigest(t, decks[name], v.set, route)
				fmt.Fprintf(&table, "%s %s\n", id, got)
				switch w, ok := want[id]; {
				case !ok:
					t.Errorf("%s: no committed digest", id)
				case w != got:
					wn, _, _ := strings.Cut(w, " ")
					gn, _, _ := strings.Cut(got, " ")
					what := "flop accounting"
					if wn != gn {
						what = "samples, state or counters"
					}
					t.Errorf("%s: %s changed:\n got %s\nwant %s", id, what, got, w)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("digests of this tree (%s):\n%s", digestFile, table.String())
	}
}

// runDigest runs one partitioned transient of src and digests it; a
// failed run digests as its error text.
func runDigest(t *testing.T, src string, set func(*nanosim.TranOptions), route string) string {
	opt, _ := partitionedTranOptions(t, src)
	set(&opt)
	fc := new(flop.Counter)
	opt.FC = fc
	var res *nanosim.TranResult
	var err error
	if route == "core" {
		res, err = core.Transient(parseCircuit(t, src), opt)
	} else {
		res, err = nanosim.Transient(parseCircuit(t, src), opt)
	}
	if err != nil {
		return "error " + strings.ReplaceAll(err.Error(), " ", "_")
	}
	noFlops := res.Stats
	noFlops.Flops = flop.Snapshot{}
	sum := digest.Of(digest.Run{
		Waves: res.Waves, X: res.X,
		Stats: res.Stats, StatsNoFlops: noFlops,
		Flops: fc.Snapshot(),
	})
	return sum.Numbers + " " + sum.All
}
