package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nanosim/internal/serve/store"
)

// recover rebuilds the in-memory job table from the replayed journal:
// terminal jobs come back with their scalar results (waveforms stream
// from the disk spill), interrupted jobs — queued or running when the
// previous process died — are re-queued and re-run from their durable
// deck source. Runs once from New, before the server is reachable over
// HTTP, but after the workers started: requeued jobs may begin running
// while later records are still being restored, which is safe because
// every mutation here happens under s.mu.
func (s *Server) recover(recs map[string]*store.Record) {
	ids := make([]string, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	// Numeric id order restores the original submission order, so the
	// list endpoint and eviction age-ordering survive the restart.
	sort.Slice(ids, func(a, b int) bool { return jobNum(ids[a]) < jobNum(ids[b]) })

	for _, id := range ids {
		rec := recs[id]
		var info JobInfo
		if rec.Info != nil {
			if err := json.Unmarshal(rec.Info, &info); err != nil {
				s.met.storeErrors.Add(1)
				continue
			}
		}
		var req SubmitRequest
		if rec.Req != nil {
			if err := json.Unmarshal(rec.Req, &req); err != nil {
				s.met.storeErrors.Add(1)
				continue
			}
		}
		info.ID, info.Key, info.DeckHash = rec.ID, rec.Key, rec.Hash
		info.Attempts = rec.Attempts
		info.Requeued = rec.Requeued
		if n := jobNum(id); n > s.nextID {
			s.nextID = n
		}
		if rec.Interrupted {
			s.requeue(rec, info, req)
			continue
		}
		s.restoreTerminal(rec, info)
	}
}

// jobNum extracts the numeric suffix of "job-<n>" (0 when malformed).
func jobNum(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

// restoreTerminal rebuilds a finished job's record: status, error and
// scalar result are served exactly as before the restart; the waveform
// payload, if any, streams from the disk spill.
func (s *Server) restoreTerminal(rec *store.Record, info JobInfo) {
	info.State = rec.State
	info.Error = rec.Error
	j := &job{
		id:   rec.ID,
		key:  rec.Key,
		done: make(chan struct{}),
		info: info,
	}
	// A restored job needs a context only so cancel endpoints stay
	// no-ops; it is terminal, nothing watches it.
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("job restored from journal in a terminal state"))
	j.ctx, j.cancel = ctx, func(error) {}
	if rec.Result != nil {
		var res Result
		if err := json.Unmarshal(rec.Result, &res); err == nil {
			j.result = &res
			// Remember the job had a stream payload, so the stream
			// endpoint serves its spill (or answers 410, not 204, once
			// the spill is pruned).
			if len(res.Signals) > 0 && res.Kind != "step" {
				j.hadWaves = true
			}
		} else {
			s.met.storeErrors.Add(1)
		}
	}
	close(j.done)
	s.mu.Lock()
	s.adoptLocked(j)
	s.submitted++
	switch rec.State {
	case StateDone:
		s.completed++
	case StateCanceled:
		s.canceled++
	default:
		s.failed++
	}
	s.mu.Unlock()
}

// requeue re-runs a job the previous process never finished. The deck
// source is reloaded from the durable store and recompiled (the compile
// cache died with the old process); a deck that fails to reload or
// reparse fails the job instead of dropping it silently.
func (s *Server) requeue(rec *store.Record, info JobInfo, req SubmitRequest) {
	fail := func(err error) {
		j := &job{id: rec.ID, key: rec.Key, done: make(chan struct{}), info: info}
		j.info.State = StateFailed
		j.info.Error = fmt.Sprintf("requeue after restart: %v", err)
		j.info.Requeued = true
		j.ctx, j.cancel = context.Background(), func(error) {}
		close(j.done)
		if serr := s.store.State(rec.ID, StateFailed, j.info.Error, rec.Attempts, true); serr != nil {
			s.met.storeErrors.Add(1)
		}
		s.mu.Lock()
		s.adoptLocked(j)
		s.submitted++
		s.failed++
		s.mu.Unlock()
	}
	src, err := s.store.LoadDeck(rec.Hash)
	if err != nil {
		fail(err)
		return
	}
	entry, _ := s.cache.get(src)
	if entry.err != nil {
		fail(entry.err)
		return
	}
	kind, plan, err := resolve(entry.deck, req)
	if err != nil {
		fail(err)
		return
	}

	s.mu.Lock()
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		fail(errors.New("job queue full"))
		return
	}
	j := s.newJob(rec.ID, rec.Key, "", req, entry, kind, plan)
	j.info.Submitted = info.Submitted
	j.info.CacheHit = info.CacheHit
	j.info.Requeued = true
	if s.coordinated(kind, &req) {
		// A resumed coordinator job re-dispatches its shards; finished
		// shards idempotent-hit on the replicas instead of recomputing.
		j.deckSrc = src
	}
	// Journal the requeue before the job becomes runnable, so a crash
	// between here and completion still replays it as interrupted.
	if err := s.store.State(rec.ID, StateQueued, "", rec.Attempts, true); err != nil {
		s.met.storeErrors.Add(1)
	}
	s.queue <- j
	s.adoptLocked(j)
	s.submitted++
	s.queued++
	s.mu.Unlock()
}

// adoptLocked registers a recovered job (caller holds s.mu). Key
// adoption prefers live or done jobs: a resubmission after restart must
// idempotent-hit a completed result, but a failed job must release its
// key so the client can retry.
func (s *Server) adoptLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	st := j.info.State
	if prior := s.keys[j.key]; prior == nil || st == StateDone || st == StateQueued || st == StateRunning {
		s.keys[j.key] = j
	}
}
