package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nanosim/internal/faultpoint"
	"nanosim/internal/trace"
)

// submitFull POSTs a request with optional headers and returns the raw
// response status, decoded JobInfo (2xx only) and Retry-After header.
func submitFull(t *testing.T, ts *httptest.Server, req SubmitRequest, hdr map[string]string) (int, JobInfo, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, info, resp.Header.Get("Retry-After")
}

// getRaw fetches a URL and returns status and body bytes.
func getRaw(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestSubmitCloseRace(t *testing.T) {
	// Close must be mutually exclusive with submission: racing submits
	// either land before shutdown or get a clean 503 — never a send on a
	// closed channel. Run under -race in CI.
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, _ := json.Marshal(SubmitRequest{Deck: tranDeck, Fresh: true})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					return // listener may be gone late in the race
				}
				st := resp.StatusCode
				resp.Body.Close()
				if st != http.StatusAccepted && st != http.StatusServiceUnavailable {
					t.Errorf("racing submit: HTTP %d", st)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()
	if code, _, _ := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close: HTTP %d, want 503", code)
	}
}

func TestIdempotentResubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	first := submit(t, ts, SubmitRequest{Deck: mcDeck}, http.StatusAccepted)
	if first.Key == "" {
		t.Fatal("submission has no idempotency key")
	}
	waitState(t, ts, first.ID, StateDone)

	// Same deck, same overrides: the retry maps onto the finished job.
	code, again, _ := submitFull(t, ts, SubmitRequest{Deck: mcDeck}, nil)
	if code != http.StatusOK || again.ID != first.ID {
		t.Fatalf("resubmit: HTTP %d id %s, want 200 id %s", code, again.ID, first.ID)
	}
	// A changed seed is a different computation.
	seed := uint64(99)
	if code, other, _ := submitFull(t, ts, SubmitRequest{Deck: mcDeck, Seed: &seed}, nil); code != http.StatusAccepted || other.ID == first.ID {
		t.Fatalf("different-seed submit: HTTP %d id %s", code, other.ID)
	}
	// Fresh forces a re-run of the identical request.
	if code, other, _ := submitFull(t, ts, SubmitRequest{Deck: mcDeck, Fresh: true}, nil); code != http.StatusAccepted || other.ID == first.ID {
		t.Fatalf("fresh submit: HTTP %d id %s", code, other.ID)
	}
	if m := s.Metrics(); m.Admission.IdempotentHits != 1 {
		t.Errorf("idempotent hits = %d, want 1", m.Admission.IdempotentHits)
	}
}

func TestCrashRecoveryBitIdentical(t *testing.T) {
	// Reference run: a clean server computes the MC result once.
	dir1 := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir1})
	ref := submit(t, ts1, SubmitRequest{Deck: mcDeck}, http.StatusAccepted)
	waitState(t, ts1, ref.ID, StateDone)
	_, want := getRaw(t, ts1.URL+"/v1/jobs/"+ref.ID+"/result")

	// Crash run: the same job is killed mid-flight (kill -9 semantics:
	// the journal stops cold, no terminal state is written).
	t.Cleanup(faultpoint.Reset)
	dir2 := t.TempDir()
	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir2})
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Delay: 400 * time.Millisecond, Times: 1})
	crash := submit(t, ts2, SubmitRequest{Deck: mcDeck}, http.StatusAccepted)
	waitState(t, ts2, crash.ID, StateRunning)
	s2.kill()
	faultpoint.Reset()

	// Restart on the crashed data dir: the journal must still hold the
	// job, re-queue it, and the re-run must answer byte-for-byte what
	// the reference run answered.
	_, ts3 := newTestServer(t, Config{Workers: 1, DataDir: dir2})
	info := waitState(t, ts3, crash.ID, StateDone)
	if !info.Requeued {
		t.Error("recovered job not marked requeued")
	}
	code, got := getRaw(t, ts3.URL+"/v1/jobs/"+crash.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("recovered result: HTTP %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered MC result differs from the reference run:\n got %s\nwant %s", got, want)
	}
	// No record lost, and a resubmission idempotent-hits the recovered
	// job instead of recomputing.
	var list JobList
	if getJSON(t, ts3.URL+"/v1/jobs", &list); len(list.Jobs) != 1 {
		t.Errorf("restart lost records: %d jobs listed, want 1", len(list.Jobs))
	}
	if code, again, _ := submitFull(t, ts3, SubmitRequest{Deck: mcDeck}, nil); code != http.StatusOK || again.ID != crash.ID {
		t.Errorf("resubmit after recovery: HTTP %d id %s, want 200 id %s", code, again.ID, crash.ID)
	}
}

func TestRestartRestoresTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	info := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts, info.ID, StateDone)
	_, want := getRaw(t, ts.URL+"/v1/jobs/"+info.ID+"/result")

	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	got := waitState(t, ts2, info.ID, StateDone)
	if got.Requeued {
		t.Error("finished job was requeued instead of restored")
	}
	if code, body := getRaw(t, ts2.URL+"/v1/jobs/"+info.ID+"/result"); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("restored result: HTTP %d (bytes equal: %v)", code, bytes.Equal(body, want))
	}
	// The waveform payload died with the old process but streams from
	// the durable spill.
	code, body := getRaw(t, ts2.URL+"/v1/jobs/"+info.ID+"/stream")
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("restored stream: HTTP %d, %d bytes", code, len(body))
	}
}

// copyDir copies the directory tree under src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParentLayoutDataDirStreams(t *testing.T) {
	// testdata/parent-datadir was written by the per-job spill layout:
	// job-1 ran tranDeck and job-2 mcDeck, each spilled to
	// waves/<id>.ndjson, and the result records carry no location. It
	// must replay, and stream and answer what a fresh run does.
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "parent-datadir"), dir)
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir, MaxSpillWaves: 2})
	_, fresh := newTestServer(t, Config{Workers: 1})
	for id, deck := range map[string]string{"job-1": tranDeck, "job-2": mcDeck} {
		ref := submit(t, fresh, SubmitRequest{Deck: deck}, http.StatusAccepted)
		waitState(t, fresh, ref.ID, StateDone)
		_, wantRes := getRaw(t, fresh.URL+"/v1/jobs/"+ref.ID+"/result")
		_, wantBody := getRaw(t, fresh.URL+"/v1/jobs/"+ref.ID+"/stream")
		if info := waitState(t, ts, id, StateDone); info.Requeued {
			t.Fatalf("%s requeued", id)
		}
		if code, res := getRaw(t, ts.URL+"/v1/jobs/"+id+"/result"); code != http.StatusOK || !bytes.Equal(res, wantRes) {
			t.Fatalf("%s result: HTTP %d, equal to a fresh run's %v", id, code, bytes.Equal(res, wantRes))
		}
		if code, body := getRaw(t, ts.URL+"/v1/jobs/"+id+"/stream"); code != http.StatusOK || !bytes.Equal(body, wantBody) {
			t.Fatalf("%s stream: HTTP %d, %d bytes; a fresh run streams %d", id, code, len(body), len(wantBody))
		}
	}
	// The adopted files are older than any segment's payload: two new
	// spills under MaxSpillWaves 2 prune both.
	for range 2 {
		info := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
		waitState(t, ts, info.ID, StateDone)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "waves")); err != nil || len(ents) != 1 || ents[0].Name() != "seg-0.ndjson" {
		t.Fatalf("waves/ after two new spills: %v, %v; want seg-0.ndjson alone", ents, err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		if code, _ := getRaw(t, ts.URL+"/v1/jobs/"+id+"/stream"); code != http.StatusGone {
			t.Fatalf("pruned %s stream: HTTP %d, want 410", id, code)
		}
	}
	if m := s.Metrics(); m.Store.WaveFiles != 1 || m.Store.Replayed != 2 {
		t.Fatalf("store counters %+v", *m.Store)
	}
}

func TestPrunedStreamStaysGoneAfterRestart(t *testing.T) {
	// A pruned payload's bytes stay in its segment while the segment is
	// open or holds retained payloads. A restart must not serve them
	// again: the stream that answered 410 still does.
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir, MaxSpillWaves: 1})
	old := submit(t, ts1, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts1, old.ID, StateDone)
	kept := submit(t, ts1, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	waitState(t, ts1, kept.ID, StateDone)
	_, want := getRaw(t, ts1.URL+"/v1/jobs/"+kept.ID+"/stream")
	if code, _ := getRaw(t, ts1.URL+"/v1/jobs/"+old.ID+"/stream"); code != http.StatusGone {
		t.Fatalf("pruned stream before the restart: HTTP %d, want 410", code)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir, MaxSpillWaves: 1})
	waitState(t, ts2, kept.ID, StateDone)
	if code, _ := getRaw(t, ts2.URL+"/v1/jobs/"+old.ID+"/stream"); code != http.StatusGone {
		t.Fatalf("pruned stream after the restart: HTTP %d, want 410", code)
	}
	if code, body := getRaw(t, ts2.URL+"/v1/jobs/"+kept.ID+"/stream"); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("retained stream after the restart: HTTP %d, %d bytes; want %d", code, len(body), len(want))
	}
	if m := s2.Metrics(); m.Store.WavePruned != 1 {
		t.Fatalf("store counters after the restart %+v, want the one pruned at Open", *m.Store)
	}
}

func TestTornSegmentTailJobReruns(t *testing.T) {
	// A crash mid-spill leaves a torn tail in the segment and no result
	// record for it. After a restart the tail is never served: the
	// finished job streams what it streamed before, the cut job re-runs
	// and spills to a new segment, and the torn one is left as it was.
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	done := submit(t, ts1, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts1, done.ID, StateDone)
	_, want := getRaw(t, ts1.URL+"/v1/jobs/"+done.ID+"/stream")
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Delay: 400 * time.Millisecond, Times: 1})
	cut := submit(t, ts1, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	waitState(t, ts1, cut.ID, StateRunning)
	s1.kill()
	faultpoint.Reset()
	seg := filepath.Join(dir, "waves", "seg-0.ndjson")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := want[:len(want)/3] // the cut job's spill, a third written
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if info := waitState(t, ts2, cut.ID, StateDone); !info.Requeued {
		t.Fatal("the job cut mid-spill was not re-run")
	}
	for _, id := range []string{done.ID, cut.ID} {
		if code, body := getRaw(t, ts2.URL+"/v1/jobs/"+id+"/stream"); code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s after restart: HTTP %d, %d bytes; want %d", id, code, len(body), len(want))
		}
	}
	if st, err := os.Stat(seg); err != nil || st.Size() != int64(len(want)+len(torn)) {
		t.Fatalf("torn segment after restart: %v, %v; want it untouched at %d bytes", st, err, len(want)+len(torn))
	}
	if _, err := os.Stat(filepath.Join(dir, "waves", "seg-1.ndjson")); err != nil {
		t.Fatalf("the re-run did not spill to a new segment: %v", err)
	}
}

func TestDrainGraceful(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, ts := newTestServer(t, Config{Workers: 1})
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: HTTP %d", code)
	}
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Delay: 400 * time.Millisecond, Times: 1})
	info := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts, info.ID, StateRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Readiness flips immediately; liveness stays up so the process is
	// not restarted mid-drain; new submissions shed with Retry-After.
	waitFor(t, time.Second, func() bool { return s.Draining() })
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: HTTP %d, want 503", code)
	}
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz during drain: HTTP %d %v, want 200 ok", code, health)
	}
	code, _, retryAfter := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, nil)
	if code != http.StatusServiceUnavailable || retryAfter == "" {
		t.Errorf("submit during drain: HTTP %d (Retry-After %q), want 503 with a hint", code, retryAfter)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain with a generous deadline: %v", err)
	}
	// Zero dropped in-flight jobs: the admitted job finished.
	if st := jobState(t, s, info.ID); st != StateDone {
		t.Errorf("in-flight job after drain: %s, want done", st)
	}
}

func TestDrainDeadlineCheckpointsForRestart(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Delay: 600 * time.Millisecond, Times: 1})
	info := submit(t, ts, SubmitRequest{Deck: mcDeck}, http.StatusAccepted)
	waitState(t, ts, info.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil || !strings.Contains(err.Error(), "checkpointed") {
		t.Fatalf("drain past deadline: %v, want a checkpoint report", err)
	}
	faultpoint.Reset()

	// The checkpointed job journals as interrupted, so the next boot
	// finishes it.
	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	got := waitState(t, ts2, info.ID, StateDone)
	if !got.Requeued {
		t.Error("checkpointed job not requeued on restart")
	}
}

func TestRateLimitPerClient(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RatePerSec: 0.5, RateBurst: 1})
	if code, _, _ := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, nil); code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	code, _, retryAfter := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, nil)
	if code != http.StatusTooManyRequests || retryAfter == "" {
		t.Fatalf("over-rate submit: HTTP %d (Retry-After %q), want 429 with a hint", code, retryAfter)
	}
	// A different client has its own bucket.
	if code, _, _ := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, map[string]string{"X-Client-ID": "tenant-b"}); code != http.StatusAccepted {
		t.Errorf("second client's submit: HTTP %d, want 202", code)
	}
	if m := s.Metrics(); m.Admission.RateLimited != 1 {
		t.Errorf("rate_limited = %d, want 1", m.Admission.RateLimited)
	}
}

func TestClientLiveJobCap(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, ts := newTestServer(t, Config{Workers: 1, MaxClientJobs: 1})
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Delay: 300 * time.Millisecond, Times: 1})
	info := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts, info.ID, StateRunning)
	code, _, retryAfter := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, nil)
	if code != http.StatusTooManyRequests || retryAfter == "" {
		t.Fatalf("over-cap submit: HTTP %d (Retry-After %q), want 429 with a hint", code, retryAfter)
	}
	if code, _, _ := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, map[string]string{"X-Client-ID": "tenant-b"}); code != http.StatusAccepted {
		t.Errorf("second client's submit: HTTP %d, want 202", code)
	}
	if m := s.Metrics(); m.Admission.ClientCapRejected != 1 {
		t.Errorf("client_cap_rejected = %d, want 1", m.Admission.ClientCapRejected)
	}
	waitState(t, ts, info.ID, StateDone)
}

func TestQueueFullSheds(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Delay: 300 * time.Millisecond, Times: 1})
	running := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts, running.ID, StateRunning)
	queued := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	code, _, retryAfter := submitFull(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, nil)
	if code != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("queue-full submit: HTTP %d (Retry-After %q), want 503 with a hint", code, retryAfter)
	}
	if m := s.Metrics(); m.Admission.QueueRejected != 1 {
		t.Errorf("queue_rejected = %d, want 1", m.Admission.QueueRejected)
	}
	waitState(t, ts, queued.ID, StateDone)
}

func TestQueueWaitDeadlineExpiresStaleJobs(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, ts := newTestServer(t, Config{Workers: 1, QueueWaitMax: 250 * time.Millisecond})
	// Establish a small mean run time so the submit-time estimate admits
	// the doomed job.
	warm := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts, warm.ID, StateDone)

	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Delay: 700 * time.Millisecond, Times: 1})
	slow := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	waitState(t, ts, slow.ID, StateRunning)
	stale := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	info := waitState(t, ts, stale.ID, StateFailed)
	if !strings.Contains(info.Error, "queue-wait") {
		t.Errorf("stale job error %q does not name the deadline", info.Error)
	}
	if m := s.Metrics(); m.Admission.QueueExpired != 1 {
		t.Errorf("queue_expired = %d, want 1", m.Admission.QueueExpired)
	}
	waitState(t, ts, slow.ID, StateDone)
}

func TestJobTimeoutFailsNotCancels(t *testing.T) {
	longMC := strings.Replace(mcDeck, ".mc 16 SEED=1", ".mc 200000 SEED=1", 1)
	s, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 100 * time.Millisecond})
	info := submit(t, ts, SubmitRequest{Deck: longMC}, http.StatusAccepted)
	got := waitState(t, ts, info.ID, StateFailed)
	if !strings.Contains(got.Error, "job timeout") {
		t.Errorf("timeout error %q does not name the cause", got.Error)
	}
	if m := s.Metrics(); m.Admission.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Admission.Timeouts)
	}
}

func TestTransientFailureRetries(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, ts := newTestServer(t, Config{Workers: 1, RetryBackoff: time.Millisecond})
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Err: Transient(errors.New("injected blip")), Times: 1})
	info := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	done := waitState(t, ts, info.ID, StateDone)
	if done.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one transient failure, one success)", done.Attempts)
	}
	if m := s.Metrics(); m.Admission.Retries != 1 {
		t.Errorf("retries = %d, want 1", m.Admission.Retries)
	}

	// A fatal error must not burn a retry: the failure is deterministic.
	faultpoint.Set(faultpoint.WorkerRun, faultpoint.Fault{Err: errors.New("injected fatal"), Times: 1})
	info = submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	failed := waitState(t, ts, info.ID, StateFailed)
	if failed.Attempts != 1 {
		t.Errorf("fatal attempts = %d, want 1", failed.Attempts)
	}
}

func TestSlowStreamReaderIsCutOff(t *testing.T) {
	// A reader that accepts the response and then stops reading must not
	// pin the stream handler (and its payload) forever: each block write
	// carries a deadline, on the in-memory encode path and on the spill
	// file path alike. The RC-ladder deck produces a multi-megabyte
	// payload — bigger than the kernel's send-buffer ceiling, so the
	// handler's write genuinely blocks on the stalled reader.
	var big strings.Builder
	big.WriteString("* rc ladder\nV1 in 0 PULSE(0 1 5n 1n 1n 100n)\n")
	prev := "in"
	for i := 1; i <= 60; i++ {
		fmt.Fprintf(&big, "R%d %s n%d 1k\nC%d n%d 0 1p\n", i, prev, i, i, i)
		prev = fmt.Sprintf("n%d", i)
	}
	big.WriteString(".tran 0.02n 2000n\n.end\n")
	for _, tc := range []struct {
		name     string
		dataDir  bool
		fromDisk int64
	}{{"memory-only", false, 0}, {"data-dir", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 1, StreamWriteTimeout: 150 * time.Millisecond}
			if tc.dataDir {
				cfg.DataDir = t.TempDir()
			}
			s, ts := newTestServer(t, cfg)
			info := submit(t, ts, SubmitRequest{Deck: big.String()}, http.StatusAccepted)
			waitState(t, ts, info.ID, StateDone)

			// A tiny receive buffer closes the TCP window after a few KB,
			// so the kernel cannot absorb the payload on the reader's
			// behalf.
			d := net.Dialer{Control: func(network, address string, c syscall.RawConn) error {
				var serr error
				if err := c.Control(func(fd uintptr) {
					serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096)
				}); err != nil {
					return err
				}
				return serr
			}}
			conn, err := d.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "GET /v1/jobs/%s/stream HTTP/1.1\r\nHost: nanosimd\r\n\r\n", info.ID)
			// Read nothing: once the kernel buffers fill, the handler's
			// next block write blocks, trips the deadline and aborts the
			// stream.
			waitFor(t, 15*time.Second, func() bool { return s.Metrics().Streams.Aborts > 0 })
			if got := s.Metrics().Streams.FromDisk; got != tc.fromDisk {
				t.Errorf("from_disk = %d, want %d", got, tc.fromDisk)
			}
		})
	}
}

func TestMetricsSnapshotConsistentUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 24; i++ {
			submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
		}
		close(stop)
	}()
	// Every snapshot taken while jobs churn must balance exactly: the
	// lifecycle counters move under one lock.
	for {
		m := s.Metrics().Jobs
		if sum := int64(m.Queued) + int64(m.Running) + m.Completed + m.Failed + m.Canceled; sum != m.Submitted {
			t.Fatalf("inconsistent snapshot: queued %d + running %d + done %d + failed %d + canceled %d != submitted %d",
				m.Queued, m.Running, m.Completed, m.Failed, m.Canceled, m.Submitted)
		}
		select {
		case <-stop:
			wg.Wait()
			return
		default:
		}
	}
}

func TestEvictedWaveformsStreamFromSpill(t *testing.T) {
	// Without a data dir MaxWaveJobs evicts (410, covered by
	// TestWaveformEvictionBound); with one, the spill is every job's
	// payload, so the bound drops nothing.
	s, ts := newTestServer(t, Config{Workers: 1, MaxWaveJobs: 1, DataDir: t.TempDir()})
	first := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
	waitState(t, ts, first.ID, StateDone)
	_, want := getRaw(t, ts.URL+"/v1/jobs/"+first.ID+"/stream")
	for i := 0; i < 2; i++ {
		info := submit(t, ts, SubmitRequest{Deck: tranDeck, Fresh: true}, http.StatusAccepted)
		waitState(t, ts, info.ID, StateDone)
	}
	code, got := getRaw(t, ts.URL+"/v1/jobs/"+first.ID+"/stream")
	if code != http.StatusOK {
		t.Fatalf("evicted stream with a store: HTTP %d, want 200", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("spilled stream differs from the original (%d vs %d bytes)", len(got), len(want))
	}
	if m := s.Metrics(); m.Streams.FromDisk == 0 {
		t.Error("from_disk = 0 after serving a spilled stream")
	}
	if m := s.Metrics(); m.Store == nil || m.Store.WaveSpills < 3 {
		t.Errorf("store metrics missing or spills < 3: %+v", s.Metrics().Store)
	}
}

func TestStreamChunksStillParseWithHook(t *testing.T) {
	// The per-block deadline path must not change the wire format: one
	// JSON chunk per line, ChunkSamples samples at most.
	_, ts := newTestServer(t, Config{Workers: 1, ChunkSamples: 64})
	info := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
	waitState(t, ts, info.ID, StateDone)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, full := 0, 0
	for sc.Scan() {
		var c trace.Chunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("chunk %d: %v", lines, err)
		}
		if len(c.T) > 64 || len(c.V) != len(c.T) {
			t.Fatalf("chunk %d of %s: %d/%d samples, want equal and at most 64", lines, c.Signal, len(c.T), len(c.V))
		}
		if len(c.T) == 64 {
			full++
		}
		lines++
	}
	if sc.Err() != nil || lines == 0 || full == 0 {
		t.Fatalf("stream: %v (%d lines, %d of 64 samples)", sc.Err(), lines, full)
	}
}

// jobState reads a job's state directly from the server.
func jobState(t *testing.T, s *Server, id string) string {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s vanished", id)
	}
	return j.snapshot().State
}

// waitFor polls cond until it holds, failing the test after d.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
