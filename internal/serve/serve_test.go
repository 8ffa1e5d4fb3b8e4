package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nanosim/internal/trace"
)

const tranDeck = `* rc lowpass
V1 in 0 PULSE(0 1 5n 1n 1n 100n)
R1 in out 1k
C1 out 0 1p
.tran 0.1n 50n
.end
`

const mcDeck = `* rtd divider mc
V1 in 0 0.8
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
.model rtdmod RTD
.tran 0.25n 10n
.mc 16 SEED=1
.vary N1(A) DEV=5%
.limit v(d) final 0 1.5
.print v(d)
.end
`

// newTestServer wires a Server into an httptest front end.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit POSTs a request and decodes the JobInfo; wantStatus guards the
// HTTP status.
func submit(t testing.TB, ts *httptest.Server, req SubmitRequest, wantStatus int) JobInfo {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d (want %d): %s", resp.StatusCode, wantStatus, e.Error)
	}
	if wantStatus >= 300 {
		return JobInfo{}
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// getJSON decodes a GET response into out, returning the status code.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitState polls the job until it reaches want (or any terminal state),
// failing the test on timeout.
func waitState(t *testing.T, ts *httptest.Server, id, want string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info JobInfo
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if info.State == want {
			return info
		}
		if terminal(info.State) {
			t.Fatalf("job %s reached %s (error %q) while waiting for %s", id, info.State, info.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobInfo{}
}

func TestJobLifecycleTran(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	info := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	if info.Analysis != "tran" {
		t.Fatalf("resolved analysis %q, want tran", info.Analysis)
	}
	if info.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	done := waitState(t, ts, info.ID, StateDone)
	if done.Error != "" {
		t.Fatalf("job error: %s", done.Error)
	}

	// Scalar result document.
	var res Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+info.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if res.Kind != "tran" || res.Tran == nil {
		t.Fatalf("result kind %q (tran section %v)", res.Kind, res.Tran)
	}
	if res.Tran.Steps <= 0 {
		t.Errorf("no steps recorded")
	}
	if v, ok := res.Tran.Final["v(out)"]; !ok || v < 0.5 {
		t.Errorf("v(out) final = %g, want settled near 1", v)
	}

	// NDJSON stream reassembles the waveforms.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	samples := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c trace.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		samples[c.Signal] += len(c.T)
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if samples["v(out)"] == 0 || samples["v(in)"] == 0 {
		t.Errorf("stream missing node waveforms: %v", samples)
	}
	if samples["v(out)"] != res.Tran.Steps+1 {
		t.Errorf("streamed %d samples of v(out), want steps+1 = %d", samples["v(out)"], res.Tran.Steps+1)
	}

	// Listing includes the job; metrics saw one compile.
	var list JobList
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Errorf("list: HTTP %d with %d jobs", code, len(list.Jobs))
	}
	m := s.Metrics()
	if m.DeckCache.Compiles != 1 {
		t.Errorf("compiles = %d, want 1", m.DeckCache.Compiles)
	}
	if m.EngineLatency["tran"].Count != 1 {
		t.Errorf("tran latency count = %d, want 1", m.EngineLatency["tran"].Count)
	}
}

func TestJobLifecycleMC(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	info := submit(t, ts, SubmitRequest{Deck: mcDeck}, http.StatusAccepted)
	if info.Analysis != "mc" {
		t.Fatalf("resolved analysis %q, want mc", info.Analysis)
	}
	waitState(t, ts, info.ID, StateDone)
	var res Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+info.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if res.Kind != "mc" || res.MC == nil {
		t.Fatalf("result kind %q", res.Kind)
	}
	if res.MC.Trials != 16 {
		t.Errorf("trials = %d, want 16", res.MC.Trials)
	}
	if res.MC.Yield == nil {
		t.Fatal("mc result with .limit cards has no yield section")
	}
	if y := res.MC.Yield.Yield; y <= 0 || y > 1 {
		t.Errorf("yield = %g, want in (0,1]", y)
	}
	if len(res.MC.Stats) == 0 || res.MC.Stats[0].Name != "v(d)" {
		t.Errorf("missing v(d) stats: %+v", res.MC.Stats)
	}
	// The envelope series stream.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	found := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c trace.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		found[c.Signal] = true
	}
	for _, want := range []string{"v(d)-mean", "v(d)-q05", "v(d)-q95"} {
		if !found[want] {
			t.Errorf("envelope stream missing %s (got %v)", want, found)
		}
	}
}

func TestCancelMidRun(t *testing.T) {
	// A 200k-trial Monte Carlo runs for minutes; cancellation must kill
	// it mid-batch (the in-flight trial aborts mid-transient through
	// core.Options.Ctx) within a small multiple of one trial's runtime.
	longMC := strings.Replace(mcDeck, ".mc 16 SEED=1", ".mc 200000 SEED=1", 1)
	_, ts := newTestServer(t, Config{Workers: 1})
	info := submit(t, ts, SubmitRequest{Deck: longMC}, http.StatusAccepted)
	waitState(t, ts, info.ID, StateRunning)
	time.Sleep(20 * time.Millisecond) // let some trials start
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	canceled := waitState(t, ts, info.ID, StateCanceled)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if !strings.Contains(canceled.Error, "cancel") {
		t.Errorf("cancellation error %q does not name the cause", canceled.Error)
	}
	// A canceled job has no result document.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+info.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of canceled job: HTTP %d, want 409", code)
	}
}

func TestConcurrentSubmissionsCompileOnce(t *testing.T) {
	// The load smoke from the acceptance criteria: 32 concurrent
	// submissions of one deck complete with exactly 1 deck compile.
	const n = 32
	s, ts := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(SubmitRequest{Deck: tranDeck, Fresh: true})
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			var info JobInfo
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
				errs[i] = err
				return
			}
			ids[i] = info.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	final := map[string]float64{}
	for _, id := range ids {
		info := waitState(t, ts, id, StateDone)
		if info.Error != "" {
			t.Fatalf("job %s failed: %s", id, info.Error)
		}
		var res Result
		getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res)
		// Every job of the same deck must agree on the answer.
		if v, ok := final["v(out)"]; ok {
			if res.Tran.Final["v(out)"] != v {
				t.Errorf("job %s disagrees: %g vs %g", id, res.Tran.Final["v(out)"], v)
			}
		} else {
			final["v(out)"] = res.Tran.Final["v(out)"]
		}
	}
	m := s.Metrics()
	if m.DeckCache.Compiles != 1 {
		t.Errorf("deck compiles = %d, want exactly 1", m.DeckCache.Compiles)
	}
	if m.DeckCache.Hits != n-1 {
		t.Errorf("deck hits = %d, want %d", m.DeckCache.Hits, n-1)
	}
	if m.Jobs.Completed != n {
		t.Errorf("completed = %d, want %d", m.Jobs.Completed, n)
	}
	// With 4 workers and 32 jobs, most checkouts replay warmed state.
	if m.Solver.Warm < int64(n)-4 {
		t.Errorf("warm checkouts = %d, want >= %d", m.Solver.Warm, n-4)
	}
}

func TestSequentialSubmissionsReuseSolverState(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		// Fresh forces the re-execution this test is about; the default
		// would idempotent-hit the first job.
		info := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
		waitState(t, ts, info.ID, StateDone)
	}
	m := s.Metrics()
	if m.Solver.Checkouts != 3 || m.Solver.Warm != 2 {
		t.Errorf("checkouts/warm = %d/%d, want 3/2", m.Solver.Checkouts, m.Solver.Warm)
	}
	if m.DeckCache.Compiles != 1 || m.DeckCache.Hits != 2 {
		t.Errorf("compiles/hits = %d/%d, want 1/2", m.DeckCache.Compiles, m.DeckCache.Hits)
	}
}

func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxDeckBytes: 4096})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			t.Errorf("rejection body missing error field")
		}
		return resp.StatusCode
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad JSON", "{not json", http.StatusBadRequest},
		{"no deck", `{}`, http.StatusBadRequest},
		{"malformed deck", `{"deck":"* t\nR1 in\n.end\n"}`, http.StatusUnprocessableEntity},
		{"unparsable card", `{"deck":"* t\nV1 a 0 1\nR1 a 0 1k\n.bogus\n.end\n"}`, http.StatusUnprocessableEntity},
		{"no analyses", `{"deck":"* t\nV1 a 0 1\nR1 a 0 1k\n.end\n"}`, http.StatusBadRequest},
		{"unknown analysis", `{"deck":"* t\nV1 a 0 1\nR1 a 0 1k\n.op\n.end\n","analysis":"wibble"}`, http.StatusBadRequest},
		{"mc without vary", `{"deck":"* t\nV1 a 0 1\nR1 a 0 1k\n.op\n.end\n","analysis":"mc"}`, http.StatusBadRequest},
		{"tran without card", `{"deck":"* t\nV1 a 0 1\nR1 a 0 1k\n.op\n.end\n","analysis":"tran"}`, http.StatusBadRequest},
		{"oversized deck", `{"deck":"` + strings.Repeat("x", 5000) + `"}`, http.StatusRequestEntityTooLarge},
		{"bad gcouple", `{"deck":"* t\nV1 a 0 1\nR1 a 0 1k\n.op\n.end\n","partition":{"gcouple":7}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := post(c.body); got != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.name, got, c.want)
		}
	}
	// Unknown job id paths.
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result: HTTP %d, want 404", code)
	}
}

func TestWaveformEvictionBound(t *testing.T) {
	// With MaxWaveJobs=1, an older finished job loses its stream payload
	// (410) but keeps its scalar result; the newest job still streams.
	_, ts := newTestServer(t, Config{Workers: 1, MaxWaveJobs: 1})
	first := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	waitState(t, ts, first.ID, StateDone)
	second := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	waitState(t, ts, second.ID, StateDone)
	// Eviction runs at submit time; a third submission trims the first.
	third := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	waitState(t, ts, third.ID, StateDone)

	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/stream", nil); code != http.StatusGone {
		t.Errorf("evicted job stream: HTTP %d, want 410", code)
	}
	var res Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/result", &res); code != http.StatusOK || res.Tran == nil {
		t.Errorf("evicted job lost its scalar result: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+third.ID+"/stream", nil); code != http.StatusOK {
		t.Errorf("newest job stream: HTTP %d, want 200", code)
	}
}

func TestMalformedDecksDoNotPoisonTheCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 5; i++ {
		// Distinct malformed decks must not occupy cache slots.
		body := fmt.Sprintf(`{"deck":"* bad %d\nR1 in\n.end\n"}`, i)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("malformed deck %d: HTTP %d", i, resp.StatusCode)
		}
	}
	m := s.Metrics()
	if m.DeckCache.Entries != 0 {
		t.Errorf("cache holds %d poison entries, want 0", m.DeckCache.Entries)
	}
	if m.DeckCache.Compiles != 0 {
		t.Errorf("failed parses counted as %d compiles", m.DeckCache.Compiles)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: HTTP %d, %v", code, health)
	}
	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Errorf("metrics: HTTP %d", code)
	}
}
