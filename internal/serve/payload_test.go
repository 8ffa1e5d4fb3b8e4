package serve

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"nanosim/internal/wave"
)

// jobByID reads a job record directly from the server.
func jobByID(t *testing.T, s *Server, id string) *job {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	return j
}

func TestFinishedJobPayload(t *testing.T) {
	// With a data dir a finished job keeps no wave set: the spill is the
	// only copy, and every read copies it. Without one the job keeps its
	// set and each read encodes it. Concurrent reads stream equal bytes
	// either way; under -race they also show the set is only read.
	for _, tc := range []struct {
		name     string
		dataDir  bool
		fromDisk int64
	}{{"memory-only", false, 0}, {"data-dir", true, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 1}
			if tc.dataDir {
				cfg.DataDir = t.TempDir()
			}
			s, ts := newTestServer(t, cfg)
			info := submit(t, ts, SubmitRequest{Deck: tranDeck}, http.StatusAccepted)
			waitState(t, ts, info.ID, StateDone)
			j := jobByID(t, s, info.ID)
			j.mu.Lock()
			kept, had := j.waves != nil, j.hadWaves
			j.mu.Unlock()
			if kept == tc.dataDir || !had {
				t.Fatalf("finished job: wave set kept %v, hadWaves %v; want kept %v and true", kept, had, !tc.dataDir)
			}
			bodies := make([][]byte, 3)
			var wg sync.WaitGroup
			for i := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream")
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					var b bytes.Buffer
					if _, err := b.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("read %d: HTTP %d, %v", i, resp.StatusCode, err)
					}
					bodies[i] = b.Bytes()
				}()
			}
			wg.Wait()
			for i, b := range bodies {
				if len(b) == 0 || !bytes.Equal(b, bodies[0]) {
					t.Fatalf("read %d streamed %d bytes, read 0 %d", i, len(b), len(bodies[0]))
				}
			}
			if m := s.Metrics(); m.Streams.FromDisk != tc.fromDisk || m.Streams.Aborts != 0 {
				t.Fatalf("streams = %+v, want %d from disk and no aborts", m.Streams, tc.fromDisk)
			}
		})
	}
}

// finishWith publishes a done tran job carrying waves, as a worker
// would.
func finishWith(s *Server, id string, waves *wave.Set) {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{id: id, key: id, ctx: ctx, cancel: cancel, done: make(chan struct{}),
		info: JobInfo{ID: id, State: StateRunning, Analysis: "tran"}}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.submitted++
	s.running++
	s.mu.Unlock()
	s.finish(j, StateDone, "", &Result{Kind: "tran", Signals: waves.Names()}, waves, 1)
}

func TestEncodeFailureServesCompleteLines(t *testing.T) {
	// encoding/json refuses non-finite samples. The spill fails and
	// counts a store error; a read serves the complete chunk lines
	// before the failing one, then counts a stream abort.
	waves := wave.NewSet()
	for _, name := range []string{"v(a)", "v(b)"} {
		sr := wave.NewSeries(name, 3)
		for i := 0; i < 3; i++ {
			sr.MustAppend(float64(i), float64(i))
		}
		if err := waves.Add(sr); err != nil {
			t.Fatal(err)
		}
	}
	waves.Get("v(b)").V[1] = math.NaN()
	const want = `{"signal":"v(a)","seq":0,"last":true,"t":[0,1,2],"v":[0,1,2]}` + "\n"
	for _, tc := range []struct {
		dataDir     bool
		storeErrors int64
	}{{false, 0}, {true, 1}} {
		dataDir := tc.dataDir
		cfg := Config{Workers: 1}
		if dataDir {
			cfg.DataDir = t.TempDir()
		}
		s, ts := newTestServer(t, cfg)
		finishWith(s, "job-nan", waves)
		code, body := getRaw(t, ts.URL+"/v1/jobs/job-nan/stream")
		if code != http.StatusOK || string(body) != want {
			t.Fatalf("data dir %v: HTTP %d, body %q; want 200 and %q", dataDir, code, body, want)
		}
		m := s.Metrics()
		if m.Streams.Aborts != 1 || m.Streams.FromDisk != 0 {
			t.Fatalf("data dir %v: streams = %+v, want 1 abort, none from disk", dataDir, m.Streams)
		}
		if m.StoreErrors != tc.storeErrors {
			t.Fatalf("data dir %v: store errors = %d, want %d", dataDir, m.StoreErrors, tc.storeErrors)
		}
		if dataDir {
			if _, err := os.Stat(filepath.Join(cfg.DataDir, "waves", "job-nan.ndjson")); !os.IsNotExist(err) {
				t.Fatalf("failed spill left a payload: %v", err)
			}
		}
	}
}

func TestEvictionKeepsLiveJobsAtTheFront(t *testing.T) {
	s := MustNew(Config{Workers: 1, MaxJobs: 3, MaxWaveJobs: 1})
	defer s.Close()
	add := func(id, state string, mem bool) *job {
		j := &job{id: id, key: "key-" + id, info: JobInfo{ID: id, State: state}}
		if mem {
			j.waves, j.hadWaves = wave.NewSet(), true
			s.memJobs = append(s.memJobs, j)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.keys[j.key] = j
		return j
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	check := func(step string, order []string, mem ...*job) {
		t.Helper()
		s.evictJobsLocked()
		if !slices.Equal(s.order, order) || len(s.jobs) != len(order) || len(s.keys) != len(order) {
			t.Fatalf("%s: order %v with %d jobs, %d keys; want %v", step, s.order, len(s.jobs), len(s.keys), order)
		}
		if !slices.Equal(s.memJobs, mem) {
			t.Fatalf("%s: %d jobs hold payloads, want %d", step, len(s.memJobs), len(mem))
		}
	}
	// A live job at the front is passed over; the oldest finished jobs go.
	running := add("job-1", StateRunning, false)
	add("job-2", StateDone, true)
	add("job-3", StateFailed, false)
	add("job-4", StateDone, false)
	j5 := add("job-5", StateDone, true)
	check("over MaxJobs by two", []string{"job-1", "job-4", "job-5"}, j5)
	add("job-6", StateQueued, false)
	add("job-7", StateDone, false)
	check("live job still at the front", []string{"job-1", "job-6", "job-7"})
	if j5.hasWaves() {
		t.Fatal("an evicted job still counts a payload")
	}
	// The front job finishes and goes; the live job behind it stays, in
	// order, ahead of the newer ones.
	running.info.State = StateDone
	j8 := add("job-8", StateDone, true)
	j9 := add("job-9", StateDone, true)
	check("live job between evicted ones", []string{"job-6", "job-8", "job-9"}, j9)
	if j8.hasWaves() || !j8.hadWaves {
		t.Fatal("the older payload was not dropped by MaxWaveJobs")
	}
}
