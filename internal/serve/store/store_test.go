package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
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
	if err := s.Result("job-1", json.RawMessage(`{"kind":"mc"}`), nil); err != nil {
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

// spillT spills payload under id, journals its result with the
// location as the server does, and fails the test on error.
func spillT(t *testing.T, s *Store, id, payload string) Loc {
	t.Helper()
	loc, err := s.SpillWaves(id, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(id, id, "h", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Result(id, json.RawMessage(`{}`), &loc); err != nil {
		t.Fatal(err)
	}
	return loc
}

// payload reads id's retained payload; ok=false when there is none.
func payload(t *testing.T, s *Store, id string) (string, bool) {
	t.Helper()
	rc, ok := s.OpenWaves(id)
	if !ok {
		return "", false
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), true
}

// spilled reports which of ids have a retained payload.
func spilled(t *testing.T, s *Store, ids ...string) []bool {
	t.Helper()
	out := make([]bool, len(ids))
	for i, id := range ids {
		_, out[i] = payload(t, s, id)
	}
	return out
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

func TestWaveSpillAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for i, id := range []string{"job-1", "job-2", "job-3"} {
		loc := spillT(t, s, id, strings.Repeat("x", 10+i))
		if want := (Loc{File: "seg-0.ndjson", Off: int64(10*i + i*(i-1)/2), Len: int64(10 + i)}); loc != want {
			t.Fatalf("%s spilled at %+v, want %+v: one segment, back to back", id, loc, want)
		}
	}
	if got, ok := payload(t, s, "job-2"); !ok || got != strings.Repeat("x", 11) {
		t.Fatalf("job-2 payload = %q, %v", got, ok)
	}
	s.PruneWaves(2)
	if got, want := spilled(t, s, "job-1", "job-2", "job-3"), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("after PruneWaves(2) job-1/2/3 retained = %v, want %v", got, want)
	}
	c := s.Counters()
	if c.WaveSpills != 3 || c.WavePruned != 1 || c.WaveSpillBytes != 10+11+12 || c.WaveFiles != 1 || c.WaveSpillMs <= 0 {
		t.Fatalf("counters = %+v", c)
	}
	// A failed spill retains nothing and retires its segment, which
	// stays while it holds retained payloads; the next spill creates a
	// segment.
	if _, err := s.SpillWaves("job-err", func(w io.Writer) error {
		io.WriteString(w, "half a line")
		return errors.New("no")
	}); err == nil {
		t.Fatal("failed spill reported success")
	}
	if _, ok := payload(t, s, "job-err"); ok {
		t.Fatal("failed spill left a payload")
	}
	if loc := spillT(t, s, "job-4", "four"); loc != (Loc{File: "seg-1.ndjson", Len: 4}) {
		t.Fatalf("spill after a failed one at %+v, want the start of a new segment", loc)
	}
	if got, want := waveFiles(t, dir), []string{"seg-0.ndjson", "seg-1.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ = %v, want %v", got, want)
	}
	if got, ok := payload(t, s, "job-3"); !ok || got != strings.Repeat("x", 12) {
		t.Fatalf("job-3 after the failed spill = %q, %v", got, ok)
	}
	// The retired segment goes with its last retained payload.
	s.PruneWaves(1)
	if got, want := waveFiles(t, dir), []string{"seg-1.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ after pruning the retired segment's payloads = %v, want %v", got, want)
	}
}

func TestPruneWavesFollowsSpillOrder(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		spillT(t, s, id, id)
	}
	// A re-spill replaces job-1's payload and moves it to the newest end.
	spillT(t, s, "job-1", "again")
	// A file dropped behind the store's back is not in the ring: the
	// directory is never listed, so it is neither counted nor pruned.
	stray := filepath.Join(dir, "waves", "job-0.ndjson")
	if err := os.WriteFile(stray, []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.PruneWaves(2)
	if got, want := spilled(t, s, "job-1", "job-2", "job-3"), []bool{true, false, true}; !slices.Equal(got, want) {
		t.Fatalf("after PruneWaves(2) job-1/2/3 retained = %v, want %v", got, want)
	}
	if got, _ := payload(t, s, "job-1"); got != "again" {
		t.Fatalf("re-spilled job-1 = %q", got)
	}
	s.PruneWaves(1)
	if got, want := spilled(t, s, "job-1", "job-3"), []bool{true, false}; !slices.Equal(got, want) {
		t.Fatalf("after PruneWaves(1) job-1/3 retained = %v, want %v", got, want)
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
	for _, id := range []string{"job-3", "job-1", "job-2"} {
		spillT(t, s, id, id)
	}
	s.PruneWaves(2) // job-3 goes; its bytes stay in the open segment
	s.Close()
	// Temp files a crash left mid-spill (the per-job layout's) and
	// mid-deck-save.
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
	// The ring comes back in journal order, so pruning to the same bound
	// at Open, as the server does, keeps the pruned job-3 gone.
	if got := len(s2.ring); got != 3 {
		t.Fatalf("reopened ring holds %d payloads, want the 3 still on disk", got)
	}
	s2.PruneWaves(2)
	if got, want := spilled(t, s2, "job-3", "job-1", "job-2"), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("after reopen + PruneWaves(2) job-3/1/2 retained = %v, want %v", got, want)
	}
	// A new process never appends to an old segment.
	if loc := spillT(t, s2, "job-4", "job-4"); loc.File != "seg-1.ndjson" || loc.Off != 0 {
		t.Fatalf("first spill after reopen at %+v, want the start of seg-1.ndjson", loc)
	}
	s2.PruneWaves(2)
	if got, want := spilled(t, s2, "job-1", "job-2", "job-4"), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("after a new spill job-1/2/4 retained = %v, want %v", got, want)
	}
	if got, _ := payload(t, s2, "job-2"); got != "job-2" {
		t.Fatalf("job-2 after reopen = %q", got)
	}
	s2.PruneWaves(1)
	if got, want := waveFiles(t, dir), []string{"seg-1.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ once the old segment's payloads are pruned = %v, want %v", got, want)
	}
}

func TestParentLayoutReplays(t *testing.T) {
	// A data dir of the per-job layout: waves/<id>.ndjson files, result
	// records without a location. Each file is adopted as a whole-file
	// payload, older than any segment's, by modification time.
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for _, id := range []string{"job-1", "job-2"} {
		if err := s.Submit(id, id, "h", nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Result(id, json.RawMessage(`{}`), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	base := time.Now().Add(-time.Hour)
	for i, id := range []string{"job-2", "job-1"} {
		p := filepath.Join(dir, "waves", id+".ndjson")
		if err := os.WriteFile(p, []byte("payload of "+id), 0o644); err != nil {
			t.Fatal(err)
		}
		mod := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	s2, recs := openT(t, dir)
	if len(recs) != 2 || recs["job-1"].State != "done" {
		t.Fatalf("replayed %+v", recs)
	}
	for _, id := range []string{"job-1", "job-2"} {
		if got, ok := payload(t, s2, id); !ok || got != "payload of "+id {
			t.Fatalf("%s = %q, %v", id, got, ok)
		}
	}
	spillT(t, s2, "job-3", "job-3")
	s2.PruneWaves(2)
	if got, want := spilled(t, s2, "job-2", "job-1", "job-3"), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("after PruneWaves(2) job-2/1/3 retained = %v, want %v", got, want)
	}
	if got, want := waveFiles(t, dir), []string{"job-1.ndjson", "seg-0.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ = %v, want %v", got, want)
	}
}

func TestTornSegmentTailNeverServed(t *testing.T) {
	// A crash mid-spill leaves bytes after the last journaled payload
	// and no result record for them: a reopen serves the journaled
	// payload, nothing of the tail, and appends to a new segment.
	dir := t.TempDir()
	s, _ := openT(t, dir)
	loc := spillT(t, s, "job-1", "complete\n")
	s.Close()
	seg := filepath.Join(dir, "waves", loc.File)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"signal":"v(a)","seq":0,"t":[0,1`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, _ := openT(t, dir)
	if got, ok := payload(t, s2, "job-1"); !ok || got != "complete\n" {
		t.Fatalf("journaled payload after a torn tail = %q, %v", got, ok)
	}
	if loc := spillT(t, s2, "job-2", "job-2"); loc.File == "seg-0.ndjson" {
		t.Fatalf("spill after reopen appended to the torn segment: %+v", loc)
	}
	// A location past the end of its file (a payload a power loss cut
	// short of its record) is dropped, and a segment no record
	// references is removed.
	s2.Close()
	if err := os.Truncate(seg, 3); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "waves", "seg-7.ndjson")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, _ := openT(t, dir)
	if _, ok := payload(t, s3, "job-1"); ok {
		t.Fatal("payload past the end of its segment served")
	}
	if got, want := waveFiles(t, dir), []string{"seg-1.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ = %v, want %v", got, want)
	}
	if loc := spillT(t, s3, "job-3", "job-3"); loc.File != "seg-8.ndjson" {
		t.Fatalf("new segment %s, want seg-8.ndjson past every number seen", loc.File)
	}
}

func TestSegmentNameNeverReused(t *testing.T) {
	// Result records locate payloads by file name alone, so a segment
	// name must never be created twice, also once its file is gone: a
	// stale record would locate another job's bytes in the new file.
	dir := t.TempDir()
	s, _ := openT(t, dir)
	spillT(t, s, "job-1", "one")
	held, err := s.takeSegment() // seg-0, as if a spill were writing it
	if err != nil {
		t.Fatal(err)
	}
	if loc := spillT(t, s, "job-2", "two"); loc.File != "seg-1.ndjson" {
		t.Fatalf("job-2 spilled to %s, want seg-1.ndjson", loc.File)
	}
	if _, err := s.SpillWaves("job-err", func(io.Writer) error { return errors.New("no") }); err == nil {
		t.Fatal("failed spill reported success")
	}
	s.wavesMu.Lock()
	s.free = append(s.free, held)
	s.wavesMu.Unlock()
	spillT(t, s, "job-3", "three") // seg-0
	s.PruneWaves(1)                // job-2 goes, and retired seg-1 with it
	if got, want := waveFiles(t, dir), []string{"seg-0.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ = %v, want %v", got, want)
	}
	s.Close()
	s2, _ := openT(t, dir)
	if loc := spillT(t, s2, "job-4", "four"); loc.File != "seg-2.ndjson" {
		t.Fatalf("first spill after reopen in %s, want seg-2.ndjson: the journal names seg-1", loc.File)
	}
	s2.Close()
	// A segment whose records all point past its end (a power loss) is
	// removed at Open; a process that exits before it spills must not
	// let the next one create that name again.
	if err := os.Truncate(filepath.Join(dir, "waves", "seg-2.ndjson"), 2); err != nil {
		t.Fatal(err)
	}
	s3, _ := openT(t, dir)
	s3.Close()
	s4, _ := openT(t, dir)
	if loc := spillT(t, s4, "job-5", "fifth"); loc.File != "seg-3.ndjson" {
		t.Fatalf("spill after the removed seg-2 in %s, want seg-3.ndjson", loc.File)
	}
	s4.Close()
	s5, _ := openT(t, dir)
	for _, id := range []string{"job-2", "job-4"} {
		if got, ok := payload(t, s5, id); ok {
			t.Fatalf("%s, whose segment is gone, is retained as %q", id, got)
		}
	}
	if got, ok := payload(t, s5, "job-5"); !ok || got != "fifth" {
		t.Fatalf("job-5 = %q, %v", got, ok)
	}
}

func TestOpenRemovesSupersededSegment(t *testing.T) {
	// A re-spill into another segment while the first was held open
	// leaves the first with no retained payload. The journal still
	// locates job-1 in it, then in the new segment: a reopen keeps the
	// newer payload and removes the file nothing retains.
	dir := t.TempDir()
	s, _ := openT(t, dir)
	spillT(t, s, "job-1", "first")
	held, err := s.takeSegment() // seg-0
	if err != nil {
		t.Fatal(err)
	}
	if loc := spillT(t, s, "job-1", "second"); loc.File != "seg-1.ndjson" {
		t.Fatalf("re-spill at %+v, want seg-1.ndjson", loc)
	}
	s.wavesMu.Lock()
	s.free = append(s.free, held)
	s.wavesMu.Unlock()
	s.Close()
	s2, _ := openT(t, dir)
	if got, ok := payload(t, s2, "job-1"); !ok || got != "second" {
		t.Fatalf("job-1 after reopen = %q, %v", got, ok)
	}
	if got, want := waveFiles(t, dir), []string{"seg-1.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ after reopen = %v, want %v", got, want)
	}
}

func TestSegmentUnlinkedAfterLastRetainedPayload(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	big := strings.Repeat("y", segmentMax/2)
	spillT(t, s, "job-1", "small")
	spillT(t, s, "job-2", big)
	spillT(t, s, "job-3", big) // past segmentMax: seg-0 retires
	spillT(t, s, "job-4", "next")
	if got, want := waveFiles(t, dir), []string{"seg-0.ndjson", "seg-1.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("waves/ = %v, want %v", got, want)
	}
	// A stream opened before the unlink completes.
	rc, ok := s.OpenWaves("job-3")
	if !ok {
		t.Fatal("job-3 not retained")
	}
	defer rc.Close()
	for _, keep := range []int{3, 2} {
		s.PruneWaves(keep)
		if got, want := waveFiles(t, dir), []string{"seg-0.ndjson", "seg-1.ndjson"}; !slices.Equal(got, want) {
			t.Fatalf("PruneWaves(%d) with seg-0 payloads retained: waves/ = %v", keep, got)
		}
	}
	s.PruneWaves(1)
	if got, want := waveFiles(t, dir), []string{"seg-1.ndjson"}; !slices.Equal(got, want) {
		t.Fatalf("after the last seg-0 payload went: waves/ = %v, want %v", got, want)
	}
	data, err := io.ReadAll(rc)
	if err != nil || string(data) != big {
		t.Fatalf("stream opened before the unlink read %d bytes, %v; want %d", len(data), err, len(big))
	}
	// A segment still open for appends stays when its last payload is
	// pruned: the next spill into it must read back.
	held, err := s.takeSegment() // seg-1, as if a spill were writing it
	if err != nil {
		t.Fatal(err)
	}
	spillT(t, s, "job-5", "five") // seg-2
	s.wavesMu.Lock()
	s.free = append(s.free, held)
	s.wavesMu.Unlock()
	s.PruneWaves(1) // job-4, seg-1's only payload
	if loc := spillT(t, s, "job-6", "six"); loc.File != held.name {
		t.Fatalf("job-6 spilled to %s, want the open %s", loc.File, held.name)
	}
	if got, ok := payload(t, s, "job-6"); !ok || got != "six" {
		t.Fatalf("job-6 in an open segment whose payloads were all pruned = %q, %v", got, ok)
	}
}

func TestConcurrentSpillsNeverShareSegment(t *testing.T) {
	// Run under -race: a segment written by two spills at once races on
	// its writer. Payloads must also read back whole and never overlap.
	dir := t.TempDir()
	s, _ := openT(t, dir)
	const spillers, each = 4, 25
	locs := make([][]Loc, spillers)
	var wg sync.WaitGroup
	for w := 0; w < spillers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("job-%d-%d", w, i)
				loc, err := s.SpillWaves(id, func(out io.Writer) error {
					for k := 0; k < 10; k++ { // several writes per payload
						if _, err := fmt.Fprintf(out, "%s line %d\n", id, k); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				locs[w] = append(locs[w], loc)
			}
		}()
	}
	wg.Wait()
	byFile := map[string][]Loc{}
	for w := range locs {
		for i, loc := range locs[w] {
			id := fmt.Sprintf("job-%d-%d", w, i)
			var want strings.Builder
			for k := 0; k < 10; k++ {
				fmt.Fprintf(&want, "%s line %d\n", id, k)
			}
			if got, _ := payload(t, s, id); got != want.String() {
				t.Fatalf("%s read back %q", id, got)
			}
			byFile[loc.File] = append(byFile[loc.File], loc)
		}
	}
	for file, ls := range byFile {
		sort.Slice(ls, func(i, j int) bool { return ls[i].Off < ls[j].Off })
		for i := 1; i < len(ls); i++ {
			if ls[i-1].Off+ls[i-1].Len != ls[i].Off {
				t.Fatalf("%s: payloads at %+v and %+v are not back to back", file, ls[i-1], ls[i])
			}
		}
	}
	if c := s.Counters(); c.WaveFiles > spillers {
		t.Fatalf("%d segments for %d concurrent spillers", c.WaveFiles, spillers)
	}
}

func TestReplayReadsLongLines(t *testing.T) {
	// A line of any length replays: a result document larger than a
	// line-scanner's cap, then a normal record.
	dir := t.TempDir()
	s, _ := openT(t, dir)
	big := json.RawMessage(`{"kind":"tran","pad":"` + strings.Repeat("z", 17<<20) + `"}`)
	if err := s.Submit("job-1", "k1", "h", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Result("job-1", big, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("job-2", "k2", "h", nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, recs := openT(t, dir)
	if len(recs) != 2 || recs["job-1"].State != "done" || len(recs["job-1"].Result) != len(big) || recs["job-2"] == nil {
		t.Fatalf("replay after a %d-byte line: %d records", len(big), len(recs))
	}
	if c := s2.Counters(); c.TornLines != 0 {
		t.Fatalf("%d torn lines", c.TornLines)
	}
}
