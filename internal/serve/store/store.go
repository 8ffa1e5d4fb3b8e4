// Package store is nanosimd's durable job store: an append-only NDJSON
// journal of job lifecycle events plus a content-addressed deck
// directory and spill-to-disk waveform payloads, all under one data
// directory:
//
//	<dir>/journal.ndjson        one JSON event per line, append-only
//	<dir>/decks/<hash>.sp       submitted deck sources, one per DeckHash
//	<dir>/waves/seg-<n>.ndjson  spilled waveform payloads (trace.Chunk
//	                            lines), appended back to back
//
// On restart the server replays the journal: terminal jobs come back
// with their scalar results, non-terminal jobs come back marked
// interrupted so the server can re-queue them (the deck source needed
// to re-run is in decks/). A torn final line — the record a crash cut
// mid-write — is skipped, not fatal: everything journaled before it
// replays.
//
// A spill appends one job's payload to a segment no other spill is
// writing, and the job's result record carries its location (file,
// offset, length): the record is the spill's commit point, so bytes a
// crash left after the last recorded payload are never served. A
// process appends only to segments it created, and names them past
// every segment the directory or the journal names, so a record never
// locates a later file's bytes. Payloads are retained per job, newest
// first; a segment is unlinked once it is retired (past
// 4 MiB, after a failed spill, or created by an earlier process) and
// none of its payloads is retained. A data dir written before segments
// existed keeps its waves/<id>.ndjson files, each adopted as one
// whole-file payload older than any segment's.
//
// The store journals serve-layer documents as raw JSON so this package
// stays free of the serve package's wire types (and the import cycle
// that would bring).
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
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
	// result fields ("result" events imply state done): the result
	// document, and where the job's spilled payload lives
	Result json.RawMessage `json:"result,omitempty"`
	Spill  *Loc            `json:"spill,omitempty"`
}

// Loc locates a spilled payload: Len bytes at offset Off of a file
// under waves/.
type Loc struct {
	File string `json:"file"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
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
	// WaveFiles counts the segment files spills created; WaveSpillMs is
	// the wall time spent inside SpillWaves, encode included.
	WaveFiles   int64   `json:"wave_files"`
	WaveSpillMs float64 `json:"wave_spill_ms"`
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
	waveFiles, spillNs   atomic.Int64
	replayed, tornLines  atomic.Int64

	// wavesMu guards the spill ring and the segments. ring lists the
	// retained payload ids, oldest first, each once; locs maps each to
	// its location. Bounding the spill never lists the directory.
	wavesMu sync.Mutex
	ring    []string
	locs    map[string]Loc
	segs    map[string]*segment // every waves/ file a retained payload or a spiller uses
	free    []*segment          // open segments no spill is writing
	nextSeg int                 // number of the next segment to create
}

// segment is one file of spilled payloads. A spill owns it while it
// appends: a segment is on the free list or with exactly one spiller.
type segment struct {
	name    string
	f       *os.File      // nil once retired
	w       *bufio.Writer // the segment's one buffered writer
	size    int64         // bytes appended, flushed or buffered
	live    int           // retained payloads in this file
	retired bool          // never appended to again; unlinked when live drops to 0
}

// Write appends to the segment through its buffered writer.
func (g *segment) Write(p []byte) (int, error) {
	n, err := g.w.Write(p)
	g.size += int64(n)
	return n, err
}

const (
	journalName = "journal.ndjson"
	// segmentMax is the size past which a segment is retired: large
	// enough that creating files is rare (serve-mixed payloads are
	// about 90 KiB), small enough that a partly pruned segment costs
	// little disk.
	segmentMax = 4 << 20
	// segmentBuf is each segment's write buffer: one flush per spill
	// of a typical payload.
	segmentBuf = 64 << 10
)

// Open creates (or reopens) the store at dir and replays the journal,
// returning the recovered records keyed by job id. fsync selects
// per-append fsync (restart-safe even across power loss, at a syscall
// per event). The ring holds every journaled payload still on disk, in
// journal order, also those an earlier process pruned while their
// segment stayed: a caller prunes to its bound after Open.
func Open(dir string, fsync bool) (*Store, map[string]*Record, error) {
	for _, d := range []string{dir, filepath.Join(dir, "decks"), filepath.Join(dir, "waves")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, fsync: fsync, locs: map[string]Loc{}, segs: map[string]*segment{}}
	recs, spills, torn, err := replay(filepath.Join(dir, journalName))
	if err != nil {
		return nil, nil, err
	}
	if err := s.seedRing(spills); err != nil {
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

// seedRing rebuilds the spill ring at Open and removes the spill-* and
// deck-* temp files an older process left mid-write. The ring holds
// the whole-file payloads of the per-job layout (waves/<id>.ndjson, by
// modification time, ties by name), then the journaled locations in
// journal order. Every segment found is retired: this process appends
// only to segments it creates, numbered past every segment found or
// named in the journal, so a tail a crash tore stays unreferenced and
// no record locates a later file's bytes. A segment no retained payload
// references, and a location past the end of its file, are dropped.
func (s *Store) seedRing(spills []spillRef) error {
	type aged struct {
		id  string
		mod time.Time
	}
	var whole []aged
	sizes := map[string]int64{}
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
			base, ok := strings.CutSuffix(name, ".ndjson")
			if sub != "waves" || !ok || !e.Type().IsRegular() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			sizes[name] = info.Size()
			if n, ok := segNum(name); ok {
				s.nextSeg = max(s.nextSeg, n+1)
				continue
			}
			whole = append(whole, aged{base, info.ModTime()})
		}
	}
	sort.Slice(whole, func(i, j int) bool {
		if a, b := whole[i].mod, whole[j].mod; !a.Equal(b) {
			return a.Before(b)
		}
		return whole[i].id < whole[j].id
	})
	for _, a := range whole {
		name := a.id + ".ndjson"
		s.retain(a.id, Loc{File: name, Len: sizes[name]})
	}
	for _, sp := range spills {
		// A name a record gives is never used again, also once its file
		// is gone: the record would locate bytes of the new file.
		if n, ok := segNum(sp.loc.File); ok {
			s.nextSeg = max(s.nextSeg, n+1)
		}
		if size, ok := sizes[sp.loc.File]; ok && sp.loc.Off >= 0 && sp.loc.Len >= 0 && sp.loc.Off+sp.loc.Len <= size {
			s.retain(sp.id, sp.loc)
		}
	}
	for name := range sizes {
		if g := s.segs[name]; g != nil && g.live > 0 {
			g.retired = true
			continue
		}
		delete(s.segs, name)
		if err := os.Remove(filepath.Join(s.dir, "waves", name)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// segNum parses a segment's file name, seg-<n>.ndjson.
func segNum(name string) (int, bool) {
	base, ok := strings.CutSuffix(name, ".ndjson")
	if !ok {
		return 0, false
	}
	num, ok := strings.CutPrefix(base, "seg-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	return n, err == nil
}

// retain makes loc id's newest payload (caller holds wavesMu, or owns
// the store during Open). A payload id already had is dropped first.
func (s *Store) retain(id string, loc Loc) {
	if _, ok := s.locs[id]; ok {
		s.ring = slices.DeleteFunc(s.ring, func(r string) bool { return r == id })
		s.drop(id)
	}
	s.ring = append(s.ring, id)
	s.locs[id] = loc
	g := s.segs[loc.File]
	if g == nil {
		g = &segment{name: loc.File}
		s.segs[loc.File] = g
	}
	g.live++
}

// drop forgets id's payload and unlinks its file once the file is
// retired and holds no other retained payload (caller holds wavesMu and
// has taken id out of the ring).
func (s *Store) drop(id string) {
	loc := s.locs[id]
	delete(s.locs, id)
	g := s.segs[loc.File]
	if g.live--; g.live == 0 && g.retired {
		s.unlink(g)
	}
}

// unlink removes a retired segment that no payload references. A
// stream that opened it before keeps reading its open file.
func (s *Store) unlink(g *segment) {
	delete(s.segs, g.name)
	_ = os.Remove(filepath.Join(s.dir, "waves", g.name)) // gone already is as good
}

// spillRef is a journaled payload location.
type spillRef struct {
	id  string
	loc Loc
}

// replay folds the journal into per-job records and lists the spill
// locations result events carry, in journal order. Lines that fail to
// decode are counted and skipped — the expected case is a single torn
// line at the tail where a crash cut an append short. Lines may be of
// any length: a tran result's final map lists every recorded signal.
func replay(path string) (map[string]*Record, []spillRef, int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]*Record{}, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	recs := map[string]*Record{}
	var spills []spillRef
	torn := 0
	br := bufio.NewReaderSize(f, 1<<20)
	for eof := false; !eof; {
		line, err := br.ReadBytes('\n')
		switch {
		case err == io.EOF:
			eof = true
		case err != nil:
			return nil, nil, 0, fmt.Errorf("store: replaying journal: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
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
				if ev.Spill != nil {
					spills = append(spills, spillRef{ev.ID, *ev.Spill})
				}
			}
		}
	}
	for _, r := range recs {
		switch r.State {
		case "done", "failed", "canceled":
		default:
			r.Interrupted = true
		}
	}
	return recs, spills, torn, nil
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

// Result journals a finished job's scalar result (implies state done)
// and, when its payload spilled, the spill's location: the record is
// the spill's commit point for the next Open.
func (s *Store) Result(id string, result json.RawMessage, spill *Loc) error {
	return s.append(Event{T: time.Now().UTC(), Type: "result", ID: id, Result: result, Spill: spill})
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

// SpillWaves appends a job's waveform payload, written by the supplied
// callback, to a segment no other spill is writing, flushes it (and
// syncs it with fsync), and retains it as id's payload; a re-spill
// replaces the old one. The caller journals the returned location
// with the job's result. A failed spill retires its segment, so the
// bytes it left are never followed by another payload and no offset
// needs repair.
func (s *Store) SpillWaves(id string, write func(io.Writer) error) (Loc, error) {
	defer func(start time.Time) { s.spillNs.Add(int64(time.Since(start))) }(time.Now())
	s.mu.Lock()
	wedged := s.wedged
	s.mu.Unlock()
	if wedged != nil {
		return Loc{}, wedged
	}
	g, err := s.takeSegment()
	if err != nil {
		return Loc{}, fmt.Errorf("store: %w", err)
	}
	loc := Loc{File: g.name, Off: g.size}
	err = write(g)
	if err != nil {
		err = fmt.Errorf("spilling %s: %w", id, err)
	} else if err = g.w.Flush(); err == nil && s.fsync {
		err = g.f.Sync()
	}
	loc.Len = g.size - loc.Off

	s.wavesMu.Lock()
	defer s.wavesMu.Unlock()
	if err != nil {
		s.retire(g)
		return Loc{}, fmt.Errorf("store: %w", err)
	}
	s.retain(id, loc)
	if g.size >= segmentMax {
		s.retire(g)
	} else {
		s.free = append(s.free, g)
	}
	s.spills.Add(1)
	s.spillBytes.Add(loc.Len)
	return loc, nil
}

// takeSegment hands a spill a free segment, creating one only when
// none is free.
func (s *Store) takeSegment() (*segment, error) {
	s.wavesMu.Lock()
	defer s.wavesMu.Unlock()
	if n := len(s.free); n > 0 {
		g := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return g, nil
	}
	// Open numbered every segment it found or the journal names below
	// nextSeg; O_EXCL keeps a file that appeared since from being
	// appended to.
	name := fmt.Sprintf("seg-%d.ndjson", s.nextSeg)
	s.nextSeg++
	f, err := os.OpenFile(filepath.Join(s.dir, "waves", name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	s.waveFiles.Add(1)
	g := &segment{name: name, f: f, w: bufio.NewWriterSize(f, segmentBuf)}
	s.segs[name] = g
	return g, nil
}

// retire closes a segment for appends and unlinks it if no retained
// payload is in it (caller holds wavesMu). Its buffered bytes, if a
// spill failed, are dropped.
func (s *Store) retire(g *segment) {
	g.retired = true
	g.f.Close() // written bytes are flushed or belong to no payload
	g.f, g.w = nil, nil
	if g.live == 0 {
		s.unlink(g)
	}
}

// OpenWaves opens a spilled payload for streaming; ok=false when the
// job has no retained payload. The reader keeps working if the payload
// is pruned while it streams.
func (s *Store) OpenWaves(id string) (io.ReadCloser, bool) {
	s.wavesMu.Lock()
	defer s.wavesMu.Unlock()
	loc, ok := s.locs[id]
	if !ok {
		return nil, false
	}
	f, err := os.Open(filepath.Join(s.dir, "waves", loc.File))
	if err != nil {
		return nil, false
	}
	return section{io.NewSectionReader(f, loc.Off, loc.Len), f}, true
}

// section reads one payload of an open waves/ file.
type section struct {
	*io.SectionReader
	f *os.File
}

func (r section) Close() error { return r.f.Close() }

// PruneWaves drops the oldest spilled payloads beyond max, bounding the
// data dir: retention is a ring of the most recent max spills. A
// segment goes once it is retired and none of its payloads is
// retained, so disk use stays within max payloads plus one partly
// pruned segment per concurrent spiller. Only payloads the store
// spilled (or found at Open) count; the directory is never listed.
func (s *Store) PruneWaves(max int) {
	if max <= 0 {
		return
	}
	s.wavesMu.Lock()
	defer s.wavesMu.Unlock()
	for len(s.ring) > max {
		id := s.ring[0]
		s.ring[0] = ""
		s.ring = s.ring[1:]
		s.drop(id)
		s.pruned.Add(1)
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
		WaveFiles:      s.waveFiles.Load(),
		WaveSpillMs:    float64(s.spillNs.Load()) / 1e6,
		Replayed:       s.replayed.Load(),
		TornLines:      s.tornLines.Load(),
	}
}

// Close closes the open segments, then syncs and closes the journal.
// No spill may be running.
func (s *Store) Close() error {
	s.wavesMu.Lock()
	var err error
	for _, g := range s.free {
		// Every spill flushed its payload; only the files remain.
		if cerr := g.f.Close(); err == nil {
			err = cerr
		}
		g.f, g.w, g.retired = nil, nil, true
	}
	s.free = nil
	s.wavesMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return err
	}
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
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
