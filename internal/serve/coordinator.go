package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"nanosim/internal/faultpoint"
	"nanosim/internal/vary"
	"nanosim/internal/wave"
)

// This file is the coordinator side of distributed Monte Carlo: an mc
// submission on a server configured with Replicas is split into aligned
// trial-range shards, each dispatched to a worker replica over the
// normal submit API (SubmitRequest.Shard), and the mergeable shard
// aggregates are reassembled into the single-process result document.
//
// Failover relies on idempotency, not exactly-once dispatch: every shard
// job's key includes its trial range, so re-dispatching a shard — after
// a replica died, timed out, or the coordinator itself restarted and
// requeued the job from its journal — hits the replica's finished job
// (or joins its running one) instead of recomputing. Trial t derives all
// of its randomness from the global index, so where a shard runs never
// changes what it computes.

// runMCCoordinated fans an mc job out to the configured replicas and
// merges the shard results. Shards dispatch concurrently, each retrying
// on the next replica in a deterministic rotation until ShardRetries is
// exhausted; the first unrecoverable shard failure fails the job.
func (s *Server) runMCCoordinated(j *job) (*Result, *wave.Set, error) {
	deck := j.entry.deck
	opt, err := j.mcOptions()
	if err != nil {
		return nil, nil, err
	}
	// withDefaults resolves the effective trial count (deck card or
	// request override) that the ranges must tile.
	ropt, err := opt.WithDefaults()
	if err != nil {
		return nil, nil, err
	}
	ranges := vary.ShardRanges(ropt.Trials, len(s.cfg.Replicas)*s.cfg.ShardsPerReplica)

	shards := make([]*vary.ShardResult, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, rng := range ranges {
		wg.Add(1)
		go func(i int, rng vary.ShardRange) {
			defer wg.Done()
			shards[i], errs[i] = s.runShard(j, i, rng)
		}(i, rng)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.met.coordFailed.Add(1)
			return nil, nil, fmt.Errorf("shard %s: %w", ranges[i], err)
		}
	}
	r, err := vary.MergeShards(deck.Circuit, opt, shards)
	if err != nil {
		s.met.coordFailed.Add(1)
		return nil, nil, err
	}
	s.met.coordMerged.Add(1)
	return mcResult(r, len(ropt.Limits) > 0)
}

// runShard obtains one shard's aggregate, failing over across replicas.
// The starting replica rotates with the shard index so load spreads, and
// the (i+attempt) rotation is deterministic — no clock or randomness —
// which keeps multi-replica failover tests reproducible.
func (s *Server) runShard(j *job, i int, rng vary.ShardRange) (*vary.ShardResult, error) {
	var lastErr error
	for attempt := 0; attempt <= s.cfg.ShardRetries; attempt++ {
		if err := j.ctx.Err(); err != nil {
			return nil, context.Cause(j.ctx)
		}
		replica := s.cfg.Replicas[(i+attempt)%len(s.cfg.Replicas)]
		if attempt > 0 {
			s.met.coordRetries.Add(1)
		}
		sr, err := s.dispatchShard(j, replica, rng)
		if err == nil {
			return sr, nil
		}
		lastErr = fmt.Errorf("replica %s: %w", replica, err)
	}
	return nil, fmt.Errorf("%d attempts exhausted: %w", s.cfg.ShardRetries+1, lastErr)
}

// dispatchShard runs one shard attempt against one replica: submit (the
// range makes the idempotency key shard-specific), long-poll the result
// endpoint, decode the shard aggregate. The whole attempt lives under
// one ShardTimeout.
func (s *Server) dispatchShard(j *job, replica string, rng vary.ShardRange) (*vary.ShardResult, error) {
	s.met.coordDispatched.Add(1)
	if err := faultpoint.Hit(faultpoint.CoordDispatch); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(j.ctx, s.cfg.ShardTimeout)
	defer cancel()

	req := j.req
	req.Deck = j.deckSrc
	req.Shard = &ShardRequest{Start: rng.Start, End: rng.End}
	var info JobInfo
	if err := s.replicaCall(ctx, http.MethodPost, replica+"/v1/jobs", req, &info); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var res Result
	if err := s.replicaCall(ctx, http.MethodGet, replica+"/v1/jobs/"+info.ID+"/result", nil, &res); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if res.Kind != "mc-shard" || res.MCShard == nil {
		return nil, fmt.Errorf("replica returned %q, want mc-shard", res.Kind)
	}
	sr, err := shardResultFromWire(res.MCShard)
	if err != nil {
		return nil, err
	}
	if sr.Range != rng {
		return nil, fmt.Errorf("replica returned range %s, want %s", sr.Range, rng)
	}
	return sr, nil
}

// replicaCall performs one JSON request/response exchange with a
// replica. 2xx decodes into out; anything else surfaces the replica's
// error body.
func (s *Server) replicaCall(ctx context.Context, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.httpc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var eresp ErrorResponse
		if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, eresp.Error)
		}
		return fmt.Errorf("%s", resp.Status)
	}
	return json.Unmarshal(raw, out)
}

// shardResultToWire converts a worker's shard aggregate to its JSON wire
// form: NaN scalars (failed trials) become nulls.
func shardResultToWire(sr *vary.ShardResult) *MCShardResult {
	out := &MCShardResult{
		Start:              sr.Range.Start,
		End:                sr.Range.End,
		Total:              sr.Range.Total,
		Failed:             sr.Failed,
		TrialErrors:        sr.TrialErrors,
		FullFactorizations: sr.Solve.FullFactor,
		NumericRefactors:   sr.Solve.NumericRefactor,
		PatternRebuilds:    sr.Solve.PatternRebuild,
		Reused:             sr.Solve.Reused,
	}
	for _, sh := range sr.Signals {
		out.Signals = append(out.Signals, MCShardSignal{
			Name:  sh.Name,
			Env:   sh.Env,
			Final: floatsToWire(sh.Final),
			Min:   floatsToWire(sh.Min),
			Max:   floatsToWire(sh.Max),
		})
	}
	return out
}

// shardResultFromWire is the inverse conversion on the coordinator.
func shardResultFromWire(w *MCShardResult) (*vary.ShardResult, error) {
	rng := vary.ShardRange{Start: w.Start, End: w.End, Total: w.Total}
	if err := rng.Validate(); err != nil {
		return nil, err
	}
	sr := &vary.ShardResult{
		Range:       rng,
		Failed:      w.Failed,
		TrialErrors: w.TrialErrors,
	}
	sr.Solve.FullFactor = w.FullFactorizations
	sr.Solve.NumericRefactor = w.NumericRefactors
	sr.Solve.PatternRebuild = w.PatternRebuilds
	sr.Solve.Reused = w.Reused
	for _, ws := range w.Signals {
		if len(ws.Final) != rng.Len() || len(ws.Min) != rng.Len() || len(ws.Max) != rng.Len() {
			return nil, fmt.Errorf("shard %s signal %q carries %d/%d/%d scalars for %d trials",
				rng, ws.Name, len(ws.Final), len(ws.Min), len(ws.Max), rng.Len())
		}
		sr.Signals = append(sr.Signals, &vary.SignalShard{
			Name:  ws.Name,
			Env:   ws.Env,
			Final: floatsFromWire(ws.Final),
			Min:   floatsFromWire(ws.Min),
			Max:   floatsFromWire(ws.Max),
		})
	}
	return sr, nil
}

// floatsToWire encodes a scalar column with NaN → null.
func floatsToWire(vals []float64) []*float64 {
	out := make([]*float64, len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) {
			vv := v
			out[i] = &vv
		}
	}
	return out
}

// floatsFromWire decodes a scalar column with null → NaN.
func floatsFromWire(vals []*float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v == nil {
			out[i] = math.NaN()
		} else {
			out[i] = *v
		}
	}
	return out
}
