package serve

import (
	"bytes"
	"net/http"
	"testing"
)

// threadsDeck is a partitioned RTD chain with a ".options threads="
// card; submissions may override it, and the transient ignores both.
const threadsDeck = `* rtd chain, partitioned
V1 in 0 PULSE(0 0.9 1n 0.5n 0.5n 20n)
R1 in a 400
N1 a 0 rtdmod
C1 a 0 10f
R2 a b 400
N2 b 0 rtdmod
C2 b 0 10f
R3 b c 400
N3 c 0 rtdmod
C3 c 0 10f
.model rtdmod RTD
.options partition threads=2
.tran 0.25n 10n
.end
`

// TestServeThreadsDeterministic pins the service's threads contract:
// the worker count never changes answers, so (a) Threads stays out of
// the idempotency key, and (b) fresh re-runs at any thread count answer
// byte-for-byte identical result and stream documents. Runs under -race
// in CI.
func TestServeThreadsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Reference run at the deck card's threads=2.
	ref := submit(t, ts, SubmitRequest{Deck: threadsDeck}, http.StatusAccepted)
	if done := waitState(t, ts, ref.ID, StateDone); done.Error != "" {
		t.Fatalf("reference job error: %s", done.Error)
	}
	_, wantRes := getRaw(t, ts.URL+"/v1/jobs/"+ref.ID+"/result")
	_, wantStream := getRaw(t, ts.URL+"/v1/jobs/"+ref.ID+"/stream")

	// A resubmission differing only in Threads is the same computation:
	// it must idempotent-hit the finished job, not recompute.
	if code, again, _ := submitFull(t, ts, SubmitRequest{Deck: threadsDeck, Threads: 4}, nil); code != http.StatusOK || again.ID != ref.ID {
		t.Fatalf("threads-only resubmit: HTTP %d id %s, want 200 id %s", code, again.ID, ref.ID)
	}

	// Fresh re-runs at other thread counts (including serial) must
	// answer the same bytes.
	for _, threads := range []int{1, 4} {
		run := submit(t, ts, SubmitRequest{Deck: threadsDeck, Threads: threads, Fresh: true}, http.StatusAccepted)
		if done := waitState(t, ts, run.ID, StateDone); done.Error != "" {
			t.Fatalf("threads=%d job error: %s", threads, done.Error)
		}
		if run.Key != ref.Key {
			t.Errorf("threads=%d key %q differs from reference %q", threads, run.Key, ref.Key)
		}
		if _, got := getRaw(t, ts.URL+"/v1/jobs/"+run.ID+"/result"); !bytes.Equal(got, wantRes) {
			t.Errorf("threads=%d result differs from reference:\n got %s\nwant %s", threads, got, wantRes)
		}
		if _, got := getRaw(t, ts.URL+"/v1/jobs/"+run.ID+"/stream"); !bytes.Equal(got, wantStream) {
			t.Errorf("threads=%d stream differs from reference", threads)
		}
	}

	// Same contract on the AC frequency sweep.
	acRef := submit(t, ts, SubmitRequest{Deck: acDeck}, http.StatusAccepted)
	if done := waitState(t, ts, acRef.ID, StateDone); done.Error != "" {
		t.Fatalf("ac reference job error: %s", done.Error)
	}
	_, wantACRes := getRaw(t, ts.URL+"/v1/jobs/"+acRef.ID+"/result")
	_, wantACStream := getRaw(t, ts.URL+"/v1/jobs/"+acRef.ID+"/stream")
	acRun := submit(t, ts, SubmitRequest{Deck: acDeck, Threads: 3, Fresh: true}, http.StatusAccepted)
	if done := waitState(t, ts, acRun.ID, StateDone); done.Error != "" {
		t.Fatalf("ac threads=3 job error: %s", done.Error)
	}
	if _, got := getRaw(t, ts.URL+"/v1/jobs/"+acRun.ID+"/result"); !bytes.Equal(got, wantACRes) {
		t.Errorf("ac threads=3 result differs from reference:\n got %s\nwant %s", got, wantACRes)
	}
	if _, got := getRaw(t, ts.URL+"/v1/jobs/"+acRun.ID+"/stream"); !bytes.Equal(got, wantACStream) {
		t.Errorf("ac threads=3 stream differs from reference")
	}
}
