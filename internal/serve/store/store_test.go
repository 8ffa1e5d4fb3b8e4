package store

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nanosim/internal/faultpoint"
)

func openT(t *testing.T, dir string) (*Store, map[string]*Record) {
	t.Helper()
	s, recs, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, recs
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, recs := openT(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(recs))
	}
	info := json.RawMessage(`{"id":"job-1","state":"queued"}`)
	req := json.RawMessage(`{"analysis":"mc","seed":7}`)
	if err := s.Submit("job-1", "k1", "h1", info, req); err != nil {
		t.Fatal(err)
	}
	if err := s.State("job-1", "running", "", 1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Result("job-1", json.RawMessage(`{"kind":"mc"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("job-2", "k2", "h1", info, req); err != nil {
		t.Fatal(err)
	}
	if err := s.State("job-2", "running", "", 1, false); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, recs = openT(t, dir)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	r1 := recs["job-1"]
	if r1 == nil || r1.State != "done" || r1.Interrupted || string(r1.Result) != `{"kind":"mc"}` {
		t.Fatalf("job-1 record: %+v", r1)
	}
	if r1.Key != "k1" || r1.Hash != "h1" || string(r1.Req) != string(req) {
		t.Fatalf("job-1 submit fields lost: %+v", r1)
	}
	r2 := recs["job-2"]
	if r2 == nil || !r2.Interrupted || r2.State != "running" {
		t.Fatalf("job-2 should replay interrupted-while-running: %+v", r2)
	}
}

func TestReplaySkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Submit("job-1", "k", "h", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.State("job-1", "failed", "boom", 1, false); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append: a torn, undecodable final line.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"2026-01-01T0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, recs := openT(t, dir)
	if len(recs) != 1 || recs["job-1"].State != "failed" {
		t.Fatalf("torn tail corrupted replay: %+v", recs)
	}
	if c := s2.Counters(); c.TornLines != 1 || c.Replayed != 1 {
		t.Fatalf("counters = %+v, want 1 torn / 1 replayed", c)
	}
	// The next append must start on a fresh line, not concatenate into
	// the torn garbage.
	if err := s2.Submit("job-2", "k2", "h", nil, nil); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, recs = openT(t, dir)
	if len(recs) != 2 || recs["job-2"] == nil {
		t.Fatalf("append after torn tail lost: %+v", recs)
	}
}

func TestTornWriteInjectionWedges(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Submit("job-1", "k", "h", nil, nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("power loss")
	faultpoint.Set(faultpoint.StoreAppend, faultpoint.Fault{Err: boom, TornBytes: 9, Times: 1})
	if err := s.State("job-1", "done", "", 1, false); !errors.Is(err, boom) {
		t.Fatalf("torn append returned %v", err)
	}
	// The store is wedged like a dead disk: later appends fail too.
	if err := s.State("job-1", "done", "", 1, false); !errors.Is(err, boom) {
		t.Fatalf("wedged append returned %v", err)
	}
	// Replay sees the pre-crash record and skips the torn line.
	_, recs := openT(t, dir)
	r := recs["job-1"]
	if r == nil || !r.Interrupted {
		t.Fatalf("record after torn terminal write: %+v (want interrupted)", r)
	}
}

func TestDeckSaveLoad(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	src := "* deck\nR1 a 0 1k\n.end\n"
	if err := s.SaveDeck("cafe01", src); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveDeck("cafe01", src); err != nil { // idempotent
		t.Fatal(err)
	}
	got, err := s.LoadDeck("cafe01")
	if err != nil || got != src {
		t.Fatalf("LoadDeck = %q, %v", got, err)
	}
	if c := s.Counters(); c.DeckWrites != 1 {
		t.Fatalf("deck writes = %d, want 1 (second save is a no-op)", c.DeckWrites)
	}
	if err := s.SaveDeck("../escape", src); err == nil {
		t.Fatal("path-escaping hash accepted")
	}
	if _, err := s.LoadDeck("nope"); err == nil {
		t.Fatal("missing deck loaded")
	}
}

func TestWaveSpillAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for i, id := range []string{"job-1", "job-2", "job-3"} {
		payload := strings.Repeat("x", 10+i)
		if _, err := s.SpillWaves(id, func(w io.Writer) error {
			_, err := io.WriteString(w, payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so prune order is deterministic.
		time.Sleep(5 * time.Millisecond)
	}
	rc, ok := s.OpenWaves("job-2")
	if !ok {
		t.Fatal("spilled payload missing")
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != strings.Repeat("x", 11) {
		t.Fatalf("payload = %q", data)
	}
	s.PruneWaves(2)
	if _, ok := s.OpenWaves("job-1"); ok {
		t.Fatal("oldest spill survived prune")
	}
	if _, ok := s.OpenWaves("job-3"); !ok {
		t.Fatal("newest spill pruned")
	}
	if c := s.Counters(); c.WaveSpills != 3 || c.WavePruned != 1 || c.WaveSpillBytes != 10+11+12 {
		t.Fatalf("counters = %+v", c)
	}
	// A successful spill leaves only its payload, a failed one nothing:
	// no spill-* temp file either way.
	want := []string{"job-2.ndjson", "job-3.ndjson"}
	if got := waveFiles(t, dir); !slices.Equal(got, want) {
		t.Fatalf("waves/ after spills = %v, want %v", got, want)
	}
	if _, err := s.SpillWaves("job-err", func(io.Writer) error { return errors.New("no") }); err == nil {
		t.Fatal("failed spill reported success")
	}
	if _, ok := s.OpenWaves("job-err"); ok {
		t.Fatal("failed spill left a payload")
	}
	if got := waveFiles(t, dir); !slices.Equal(got, want) {
		t.Fatalf("waves/ after a failed spill = %v, want %v", got, want)
	}
}

// waveFiles lists the file names in the data dir's waves/, sorted.
func waveFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "waves"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// spillT spills payload under id and fails the test on error.
func spillT(t *testing.T, s *Store, id, payload string) {
	t.Helper()
	if _, err := s.SpillWaves(id, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// spilled reports which of ids have a payload on disk.
func spilled(s *Store, ids ...string) []bool {
	out := make([]bool, len(ids))
	for i, id := range ids {
		if rc, ok := s.OpenWaves(id); ok {
			rc.Close()
			out[i] = true
		}
	}
	return out
}

func TestPruneWavesFollowsSpillOrder(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		spillT(t, s, id, id)
	}
	// A re-spill moves job-1 to the newest end; its mtime never decides.
	spillT(t, s, "job-1", "again")
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "waves", "job-1.ndjson"), old, old); err != nil {
		t.Fatal(err)
	}
	// A file dropped behind the store's back is not in the ring: the
	// directory is never listed, so it is neither counted nor pruned.
	stray := filepath.Join(dir, "waves", "job-0.ndjson")
	if err := os.WriteFile(stray, []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(stray, old, old); err != nil {
		t.Fatal(err)
	}
	s.PruneWaves(2)
	if got, want := spilled(s, "job-1", "job-2", "job-3"), []bool{true, false, true}; !slices.Equal(got, want) {
		t.Fatalf("after PruneWaves(2) job-1/2/3 on disk = %v, want %v", got, want)
	}
	s.PruneWaves(1)
	if got, want := spilled(s, "job-1", "job-3"), []bool{true, false}; !slices.Equal(got, want) {
		t.Fatalf("after PruneWaves(1) job-1/3 on disk = %v, want %v", got, want)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file pruned: %v", err)
	}
	if c := s.Counters(); c.WaveSpills != 4 || c.WavePruned != 2 {
		t.Fatalf("counters = %+v, want 4 spills / 2 pruned", c)
	}
}

func TestSpillRingSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	base := time.Now().Add(-time.Hour)
	// Spill order job-3, job-1, job-2; mtimes say the same.
	for i, id := range []string{"job-3", "job-1", "job-2"} {
		spillT(t, s, id, id)
		mod := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, "waves", id+".ndjson"), mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Temp files a crash left mid-spill and mid-deck-save.
	leftovers := []string{filepath.Join(dir, "waves", "spill-123"), filepath.Join(dir, "decks", "deck-456")}
	for _, p := range leftovers {
		if err := os.WriteFile(p, []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, _ := openT(t, dir)
	for _, p := range leftovers {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("Open left %s behind (%v)", p, err)
		}
	}
	s2.PruneWaves(2)
	if got, want := spilled(s2, "job-3", "job-1", "job-2"), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("after reopen + PruneWaves(2) job-3/1/2 on disk = %v, want %v", got, want)
	}
	spillT(t, s2, "job-4", "job-4")
	s2.PruneWaves(2)
	if got, want := spilled(s2, "job-1", "job-2", "job-4"), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("after a new spill job-1/2/4 on disk = %v, want %v", got, want)
	}
}
