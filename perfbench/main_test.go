package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The metric lists in code and in BENCHMARK.json must name the same
// metrics with the same units, and the workloads must match.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// The last line of a run is the result object the benchmark contract
// names: exactly correct, attempted, failed and metrics, with every
// end-to-end metric untraced and every per-layer metric traced.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mc-yield workload")
	}
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		cfg := config{seed: 3, seconds: 0.3, trace: trace, bin: "unused", work: t.TempDir()}
		if err := run("mc-yield", cfg, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
			t.Fatalf("result keys %v", res)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(want) {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d with %d metrics, want %d",
				trace, r.Correct, r.Attempted, r.Failed, len(r.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := r.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, m.name, got, m.unit)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	cfg := config{seed: 1, seconds: 1, bin: "unused", work: t.TempDir()}
	var out bytes.Buffer
	if err := run("no-such-workload", cfg, &out); err == nil || out.Len() != 0 {
		t.Errorf("unknown workload: err %v, output %q", err, out.String())
	}
}
