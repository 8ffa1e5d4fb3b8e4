package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nanosim/internal/hier/hiertest"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
)

// wake reasons of the reference scan, in the order it checks them.
const (
	wakeBreak = iota
	wakeBoundary
	wakeSource
	wakeReasons
)

// refWakeReason is the full per-block wake scan the event-driven wake
// pass replaces: dormant block b wakes for the step (t, t+h] on an
// upcoming breakpoint of its sources, on a boundary row that drifted
// past dormTol since it last solved, or on a source value that did. It
// returns the first reason that holds, or -1.
func refWakeReason(e *partEngine, b *pBlock, t, h float64) int {
	if b.brk.upcoming(t, h) {
		return wakeBreak
	}
	for i, row := range b.bndRows {
		if math.Abs(e.x[row]-b.bndVal[i]) > e.dormTol {
			return wakeBoundary
		}
	}
	tn := t + h
	for j, w := range b.vSrcs {
		if math.Abs(w.At(tn)-b.vSrcVal[j]) > e.dormTol {
			return wakeSource
		}
	}
	for j, w := range b.iSrcs {
		if e.iSourceDrifted(w.At(tn), b.iSrcVal[j]) {
			return wakeSource
		}
	}
	return -1
}

// TestWakeSetMatchesFullScan runs generated mixed-input decks and, at
// every attempted step, compares the event-driven awake set with the
// reference scan of every block: activeIdx, the eq (10) scan set
// (awake now or at the last accept) and the BlockSkips charge. The
// decks must wake blocks for each of the three reasons.
func TestWakeSetMatchesFullScan(t *testing.T) {
	var woke [wakeReasons]int
	for seed := int64(1); seed <= 4; seed++ {
		deck, err := netparse.Parse(hiertest.MixedDeck(seed))
		if err != nil {
			t.Fatal(err)
		}
		tran := deck.Analyses[0]
		for _, v := range []struct {
			name string
			opt  Options
		}{
			{"plain", Options{}},
			{"correctors", Options{Correctors: 1}},
			{"trap", Options{Trapezoidal: true}},
		} {
			opt := v.opt
			opt.TStop, opt.HInit, opt.Partition = tran.TStop, tran.TStep, &part.Options{}
			c, err := NewCompiledTransient(deck.Circuit, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d %s", seed, v.name)
			checkWakeSets(t, label, c.pe, &woke)
			if _, err := c.Run(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
	t.Logf("reference wakes: %d by breakpoint, %d by boundary drift, %d by source drift",
		woke[wakeBreak], woke[wakeBoundary], woke[wakeSource])
	for r, n := range woke {
		if n == 0 {
			t.Errorf("no block woke for reason %d: the decks do not exercise every wake rule", r)
		}
	}
}

// checkWakeSets installs e's afterWake hook comparing each wake pass
// with the reference scan, counting the reference's wake reasons.
func checkWakeSets(t *testing.T, label string, e *partEngine, woke *[wakeReasons]int) {
	n := len(e.blocks)
	ref := make([]bool, n)
	refWas := make([]bool, n)
	wokeNow := make([]bool, n)
	steps, skips := 0, int64(0)
	attempt := 0
	e.afterWake = func(tNow, h float64) {
		if t.Failed() {
			return
		}
		attempt++
		if e.stats.Steps != steps {
			// The previous attempt was accepted: its awake set is the
			// one the eq (10) scan still covers.
			copy(refWas, ref)
			steps = e.stats.Steps
		}
		clear(wokeNow)
		for _, bi := range e.woken {
			wokeNow[bi] = true
		}
		var wantActive, wantScan []int
		for bi, b := range e.blocks {
			// Before this pass a block was dormant if it still is or if
			// the pass just woke it.
			ref[bi] = true
			if b.dormant || wokeNow[bi] {
				r := refWakeReason(e, b, tNow, h)
				ref[bi] = r >= 0
				if r >= 0 {
					woke[r]++
				}
			}
			if ref[bi] != e.active[bi] {
				t.Errorf("%s: attempt %d (t=%g h=%g): block %d awake=%v, full scan says %v",
					label, attempt, tNow, h, bi, e.active[bi], ref[bi])
				return
			}
			if ref[bi] {
				wantActive = append(wantActive, bi)
			}
			if ref[bi] || refWas[bi] {
				wantScan = append(wantScan, bi)
			}
		}
		if !slices.Equal(e.activeIdx, wantActive) {
			t.Errorf("%s: attempt %d: activeIdx %v, want %v", label, attempt, e.activeIdx, wantActive)
		}
		if !slices.Equal(e.scanIdx, wantScan) {
			t.Errorf("%s: attempt %d: scanIdx %v, want %v", label, attempt, e.scanIdx, wantScan)
		}
		if got, want := e.stats.BlockSkips-skips, int64(n-len(wantActive)); got != want {
			t.Errorf("%s: attempt %d: charged %d block skips, want %d", label, attempt, got, want)
		}
		skips = e.stats.BlockSkips
	}
}
