package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// tally counts checked ops. An op fails when it errors, returns an
// unexpected status, or its output differs from its reference; fail_frac
// is failed / attempted.
type tally struct {
	attempted, failed int
	first             error // the first failure, for the report
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

// merge folds another client's tally into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == nil {
		t.first = o.first
	}
}

func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// refs holds the digest of each output key's first sighting; every
// later output under the key must reproduce it byte for byte. Every
// engine the workloads drive is deterministic at any worker count, so
// any difference is a wrong answer.
type refs struct {
	mu sync.Mutex
	m  map[string]string
}

func newRefs() *refs { return &refs{m: map[string]string{}} }

// match records out as key's reference on first sight and otherwise
// reports whether out reproduces it.
func (r *refs) match(key string, out []byte) error {
	sum := sha256.Sum256(out)
	d := hex.EncodeToString(sum[:])
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.m[key]
	if !ok {
		r.m[key] = d
		return nil
	}
	if ref != d {
		return fmt.Errorf("%s: output differs from the first op's (digest %.12s, want %.12s)", key, d, ref)
	}
	return nil
}
