// Package store is nanosimd's durable job store: an append-only NDJSON
// journal of job lifecycle events plus a content-addressed deck
// directory and spill-to-disk waveform payloads, all under one data
// directory:
//
//	<dir>/journal.ndjson   one JSON event per line, append-only
//	<dir>/decks/<hash>.sp  submitted deck sources, one per DeckHash
//	<dir>/waves/<id>.ndjson spilled waveform payloads (trace.Chunk lines)
//
// On restart the server replays the journal: terminal jobs come back
// with their scalar results, non-terminal jobs come back marked
// interrupted so the server can re-queue them (the deck source needed
// to re-run is in decks/). A torn final line — the record a crash cut
// mid-write — is skipped, not fatal: everything journaled before it
// replays.
//
// The store journals serve-layer documents as raw JSON so this package
// stays free of the serve package's wire types (and the import cycle
// that would bring).
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nanosim/internal/faultpoint"
)

// Event is one journal line.
type Event struct {
	T    time.Time `json:"t"`
	Type string    `json:"type"` // "submit", "state" or "result"
	ID   string    `json:"id"`
	// submit fields
	Key  string          `json:"key,omitempty"`
	Hash string          `json:"hash,omitempty"`
	Info json.RawMessage `json:"info,omitempty"`
	Req  json.RawMessage `json:"req,omitempty"`
	// state fields
	State    string `json:"state,omitempty"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Requeue  bool   `json:"requeue,omitempty"`
	// result field ("result" events imply state done)
	Result json.RawMessage `json:"result,omitempty"`
}

// Record is one job's replayed state: the submit document plus the last
// journaled lifecycle event.
type Record struct {
	ID       string
	Key      string
	Hash     string
	Info     json.RawMessage
	Req      json.RawMessage
	State    string // last journaled state ("queued" right after submit)
	Error    string
	Attempts int
	Requeued bool
	Result   json.RawMessage
	// Interrupted marks jobs whose journal never reached a terminal
	// state: the previous process died (or was drained past its
	// deadline) while they were queued or running.
	Interrupted bool
}

// Counters is the store's I/O accounting, exposed on /metrics.
type Counters struct {
	JournalAppends int64 `json:"journal_appends"`
	JournalBytes   int64 `json:"journal_bytes"`
	DeckWrites     int64 `json:"deck_writes"`
	WaveSpills     int64 `json:"wave_spills"`
	WaveSpillBytes int64 `json:"wave_spill_bytes"`
	WavePruned     int64 `json:"wave_pruned"`
	// Replayed counts job records recovered at Open; TornLines counts
	// undecodable journal tail lines skipped by the replay.
	Replayed  int64 `json:"replayed"`
	TornLines int64 `json:"torn_lines"`
}

// Store journals job lifecycle under a data directory.
type Store struct {
	dir   string
	fsync bool

	mu     sync.Mutex
	f      *os.File
	wedged error // once set, every append fails fast (simulated/real dead disk)

	appends, appendBytes atomic.Int64
	deckWrites           atomic.Int64
	spills, spillBytes   atomic.Int64
	pruned               atomic.Int64
	replayed, tornLines  atomic.Int64

	// ring lists the spilled payload ids, oldest first, each once; it is
	// seeded from waves/ at Open and kept by SpillWaves and PruneWaves,
	// so bounding the spill never lists the directory.
	ringMu sync.Mutex
	ring   []string
	inRing map[string]bool
}

const journalName = "journal.ndjson"

// Open creates (or reopens) the store at dir and replays the journal,
// returning the recovered records keyed by job id. fsync selects
// per-append fsync (restart-safe even across power loss, at a syscall
// per event).
func Open(dir string, fsync bool) (*Store, map[string]*Record, error) {
	for _, d := range []string{dir, filepath.Join(dir, "decks"), filepath.Join(dir, "waves")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, fsync: fsync}
	if err := s.seedRing(); err != nil {
		return nil, nil, err
	}
	recs, torn, err := replay(filepath.Join(dir, journalName))
	if err != nil {
		return nil, nil, err
	}
	s.replayed.Store(int64(len(recs)))
	s.tornLines.Store(int64(torn))
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if torn > 0 {
		// The torn tail line is dead bytes: start the next record on a
		// fresh line so it does not concatenate into the garbage.
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	s.f = f
	return s, recs, nil
}

// seedRing builds the spill ring from waves/ by modification time
// (ties by name) and removes the spill-* and deck-* temp files a crash
// left behind mid-write: no later prune would see them.
func (s *Store) seedRing() error {
	type aged struct {
		id  string
		mod time.Time
	}
	var spilled []aged
	for _, sub := range []string{"decks", "waves"} {
		dir := filepath.Join(s.dir, sub)
		ents, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, e := range ents {
			name := e.Name()
			if strings.HasPrefix(name, "spill-") || strings.HasPrefix(name, "deck-") {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return fmt.Errorf("store: %w", err)
				}
				continue
			}
			id, ok := strings.CutSuffix(name, ".ndjson")
			if sub != "waves" || !ok || !e.Type().IsRegular() {
				continue
			}
			if info, err := e.Info(); err == nil {
				spilled = append(spilled, aged{id, info.ModTime()})
			}
		}
	}
	sort.Slice(spilled, func(i, j int) bool {
		if a, b := spilled[i].mod, spilled[j].mod; !a.Equal(b) {
			return a.Before(b)
		}
		return spilled[i].id < spilled[j].id
	})
	s.inRing = make(map[string]bool, len(spilled))
	for _, a := range spilled {
		s.ring = append(s.ring, a.id)
		s.inRing[a.id] = true
	}
	return nil
}

// replay folds the journal into per-job records. Lines that fail to
// decode are counted and skipped — the expected case is a single torn
// line at the tail where a crash cut an append short.
func replay(path string) (map[string]*Record, int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]*Record{}, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	recs := map[string]*Record{}
	torn := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			torn++
			continue
		}
		switch ev.Type {
		case "submit":
			recs[ev.ID] = &Record{
				ID: ev.ID, Key: ev.Key, Hash: ev.Hash,
				Info: ev.Info, Req: ev.Req, State: "queued",
			}
		case "state":
			if r := recs[ev.ID]; r != nil {
				r.State, r.Error = ev.State, ev.Error
				if ev.Attempts > 0 {
					r.Attempts = ev.Attempts
				}
				if ev.Requeue {
					r.Requeued = true
				}
			}
		case "result":
			if r := recs[ev.ID]; r != nil {
				r.State, r.Result = "done", ev.Result
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("store: replaying journal: %w", err)
	}
	for _, r := range recs {
		switch r.State {
		case "done", "failed", "canceled":
		default:
			r.Interrupted = true
		}
	}
	return recs, torn, nil
}

// append journals one event. The write goes straight to the file (no
// userspace buffering), so an in-process crash after append returns
// loses nothing; fsync extends that to power loss.
func (s *Store) append(ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	if n, ferr, ok := faultpoint.Torn(faultpoint.StoreAppend); ok {
		// Simulated crash mid-write: emit the torn prefix, then wedge so
		// the rest of this process's appends fail like a dead disk.
		if n > len(data) {
			n = len(data)
		}
		_, _ = s.f.Write(data[:n])
		s.wedged = ferr
		return ferr
	}
	n, err := s.f.Write(data)
	if err != nil {
		s.wedged = err
		return fmt.Errorf("store: %w", err)
	}
	if s.fsync {
		if err := s.f.Sync(); err != nil {
			s.wedged = err
			return fmt.Errorf("store: %w", err)
		}
	}
	s.appends.Add(1)
	s.appendBytes.Add(int64(n))
	return nil
}

// Submit journals a new job's submit document.
func (s *Store) Submit(id, key, hash string, info, req json.RawMessage) error {
	return s.append(Event{T: time.Now().UTC(), Type: "submit", ID: id, Key: key, Hash: hash, Info: info, Req: req})
}

// State journals a lifecycle transition.
func (s *Store) State(id, state, errMsg string, attempts int, requeue bool) error {
	return s.append(Event{T: time.Now().UTC(), Type: "state", ID: id, State: state, Error: errMsg, Attempts: attempts, Requeue: requeue})
}

// Result journals a finished job's scalar result (implies state done).
func (s *Store) Result(id string, result json.RawMessage) error {
	return s.append(Event{T: time.Now().UTC(), Type: "result", ID: id, Result: result})
}

// Wedge makes every subsequent append fail with err, simulating the
// storage dying under the process (tests drive crash-recovery with it).
func (s *Store) Wedge(err error) {
	s.mu.Lock()
	s.wedged = err
	s.mu.Unlock()
}

// deckPath keeps hashes (hex) from escaping the decks dir by
// construction; anything unexpected is rejected by SaveDeck/LoadDeck.
func (s *Store) deckPath(hash string) (string, error) {
	if hash == "" || strings.ContainsAny(hash, "/\\.") {
		return "", fmt.Errorf("store: bad deck hash %q", hash)
	}
	return filepath.Join(s.dir, "decks", hash+".sp"), nil
}

// SaveDeck persists a deck source under its content hash (idempotent:
// an existing file is left alone — same hash, same content).
func (s *Store) SaveDeck(hash, src string) error {
	path, err := s.deckPath(hash)
	if err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	err = writeFileAtomic(path, "deck-*", func(f *os.File) error {
		_, err := io.WriteString(f, src)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.deckWrites.Add(1)
	return nil
}

// LoadDeck reads a deck source back by hash.
func (s *Store) LoadDeck(hash string) (string, error) {
	path, err := s.deckPath(hash)
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return string(data), nil
}

func (s *Store) wavePath(id string) string {
	return filepath.Join(s.dir, "waves", id+".ndjson")
}

// SpillWaves writes a job's waveform payload to disk via the supplied
// writer callback (temp file + rename, so a crash mid-spill leaves no
// half payload behind).
func (s *Store) SpillWaves(id string, write func(io.Writer) error) (int64, error) {
	var size int64
	err := writeFileAtomic(s.wavePath(id), "spill-*", func(f *os.File) error {
		bw := bufio.NewWriter(f)
		if err := write(bw); err != nil {
			return fmt.Errorf("spilling %s: %w", id, err)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		size, _ = f.Seek(0, io.SeekEnd)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.ringMu.Lock()
	if s.inRing[id] {
		// A re-spill replaces the payload: it is now the newest.
		s.ring = slices.DeleteFunc(s.ring, func(r string) bool { return r == id })
	}
	s.ring = append(s.ring, id)
	s.inRing[id] = true
	s.ringMu.Unlock()
	s.spills.Add(1)
	s.spillBytes.Add(size)
	return size, nil
}

// OpenWaves opens a spilled payload for streaming; ok=false when the
// job has no spill on disk.
func (s *Store) OpenWaves(id string) (io.ReadCloser, bool) {
	f, err := os.Open(s.wavePath(id))
	if err != nil {
		return nil, false
	}
	return f, true
}

// PruneWaves drops the oldest spilled payloads beyond max, bounding the
// data dir: retention is a ring of the most recent max spills. Only
// files the store spilled (or found at Open) count; the directory is
// never listed.
func (s *Store) PruneWaves(max int) {
	if max <= 0 {
		return
	}
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	for len(s.ring) > max {
		id := s.ring[0]
		s.ring[0] = ""
		s.ring = s.ring[1:]
		delete(s.inRing, id)
		if os.Remove(s.wavePath(id)) == nil {
			s.pruned.Add(1)
		}
	}
}

// Counters snapshots the store's I/O accounting.
func (s *Store) Counters() Counters {
	return Counters{
		JournalAppends: s.appends.Load(),
		JournalBytes:   s.appendBytes.Load(),
		DeckWrites:     s.deckWrites.Load(),
		WaveSpills:     s.spills.Load(),
		WaveSpillBytes: s.spillBytes.Load(),
		WavePruned:     s.pruned.Load(),
		Replayed:       s.replayed.Load(),
		TornLines:      s.tornLines.Load(),
	}
}

// Close syncs and closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	if s.wedged == nil {
		s.wedged = fmt.Errorf("store: closed")
	}
	return err
}

// writeFileAtomic writes path via a temp file named by pattern in the
// same directory, filled by fill, closed and renamed over path, so
// readers never observe a partial file. Only a failure removes the temp
// file: after the rename its name is gone.
func writeFileAtomic(path, pattern string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	err = fill(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
