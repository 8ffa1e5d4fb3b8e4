package core

// Event-driven wake bookkeeping of the partitioned engine (DESIGN.md
// §10). A dormant block wakes for one of three reasons: a breakpoint of
// its sources falls inside the attempted step, a boundary row it reads
// drifted past dormTol since its last solve, or one of its source
// inputs did. Instead of asking every dormant block on every attempt,
// each reason is kept where it can change:
//
//   - a sleeping block's next breakpoint, brk.next(t) when it fell
//     asleep, cannot move while it sleeps; the dormant blocks sit in a
//     heap ordered by it (TStop when none is left).
//   - x changes only when a step is accepted, and only on the rows of
//     the awake blocks; so boundary drift is checked after each accept,
//     for the dormant readers of the rows just written (pBlock.readers),
//     and once over all boundary rows when a block falls asleep. A hit
//     moves the block to the front of the heap, so it wakes at the next
//     attempt — the first attempt that would have seen the drift.
//   - a device.DC waveform returns the value the block was assembled
//     with, so only blocks with a non-DC source input are polled.

import (
	"math"
	"slices"

	"nanosim/internal/device"
)

// bndReader is one dormancy boundary input: block blk reads the row as
// its boundary value bnd (an index into the block's bndRows).
type bndReader struct {
	row, blk, bnd int
}

// sleepHeap is a min-heap of dormant blocks keyed by their next
// breakpoint (pBlock.wakeAt), with each block's position for removal
// when it wakes for another reason. It is not a container/heap: that
// package's Push and Pop pass block indices as interface values, an
// allocation per index above 255, and a step must not allocate.
type sleepHeap struct {
	blocks []*pBlock
	heap   []int // block indices
	pos    []int // heap position by block index, -1 when absent
}

func (s *sleepHeap) reset(blocks []*pBlock) {
	s.blocks = blocks
	s.heap = make([]int, 0, len(blocks))
	s.pos = make([]int, len(blocks))
	for i := range s.pos {
		s.pos[i] = -1
	}
}

func (s *sleepHeap) less(i, j int) bool {
	return s.blocks[s.heap[i]].wakeAt < s.blocks[s.heap[j]].wakeAt
}

func (s *sleepHeap) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = i
	s.pos[s.heap[j]] = j
}

func (s *sleepHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *sleepHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(s.heap) {
			return
		}
		m := l
		if r := l + 1; r < len(s.heap) && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			return
		}
		s.swap(i, m)
		i = m
	}
}

func (s *sleepHeap) push(bi int) {
	s.heap = append(s.heap, bi)
	s.pos[bi] = len(s.heap) - 1
	s.up(len(s.heap) - 1)
}

// remove takes block bi out of the heap if it is there.
func (s *sleepHeap) remove(bi int) {
	i := s.pos[bi]
	if i < 0 {
		return
	}
	last := len(s.heap) - 1
	if i != last {
		s.swap(i, last)
	}
	s.heap = s.heap[:last]
	s.pos[bi] = -1
	if i != last {
		s.down(i)
		s.up(i)
	}
}

// indexWake builds the run's wake state: every block awake, nothing
// asleep, the reader lists of each block's owned rows and which blocks
// have a source input that can move. Like indexBlockRows it belongs to
// the run, not the compile.
func (e *partEngine) indexWake() {
	n := len(e.blocks)
	e.active = make([]bool, n)
	e.activeIdx = make([]int, 0, n)
	e.mergeIdx = make([]int, 0, n)
	e.scanIdx = make([]int, 0, n)
	e.wasIdx = make([]int, 0, n)
	e.woken = make([]int, 0, n)
	e.polled = make([]int, 0, n)
	e.sleeping.reset(e.blocks)
	for bi, b := range e.blocks {
		e.active[bi] = true
		e.activeIdx = append(e.activeIdx, bi)
		b.readers = b.readers[:0]
		b.movable = false
		for _, w := range b.vSrcs {
			b.movable = b.movable || !isDC(w)
		}
		for _, w := range b.iSrcs {
			b.movable = b.movable || !isDC(w)
		}
	}
	for bi, b := range e.blocks {
		for i, row := range b.bndRows {
			o := e.blocks[e.par.NodeBlock[row]]
			o.readers = append(o.readers, bndReader{row: row, blk: bi, bnd: i})
		}
	}
}

// isDC reports whether w is constant by type.
func isDC(w device.Waveform) bool {
	_, ok := w.(device.DC)
	return ok
}

// wake opens the attempt (t, t+h]: it wakes the dormant blocks whose
// next breakpoint falls inside the step or whose boundary drifted at
// the last accept, and the polled ones whose sources drifted, merges
// them into activeIdx, lists the eq (10) scan set and charges
// BlockSkips for the rest.
func (e *partEngine) wake(t, h float64) {
	e.woken = e.woken[:0]
	if e.dormancy {
		lim := t + h + e.brk.tol
		for len(e.sleeping.heap) > 0 && e.blocks[e.sleeping.heap[0]].wakeAt <= lim {
			e.wakeBlock(e.sleeping.heap[0])
		}
		// The polled list drops the blocks that woke, here or above.
		tn := t + h
		polled := e.polled[:0]
		for _, bi := range e.polled {
			b := e.blocks[bi]
			if b.dormant && e.sourceDrifted(b, tn) {
				e.wakeBlock(bi)
			}
			if b.dormant {
				polled = append(polled, bi)
			}
		}
		e.polled = polled
	}
	if len(e.woken) > 0 {
		slices.Sort(e.woken)
		e.mergeIdx = mergeSorted(e.mergeIdx[:0], e.activeIdx, e.woken)
		e.activeIdx, e.mergeIdx = e.mergeIdx, e.activeIdx
	}
	e.scanIdx = mergeSorted(e.scanIdx[:0], e.activeIdx, e.wasIdx)
	e.stats.BlockSkips += int64(len(e.blocks) - len(e.activeIdx))
	if e.afterWake != nil {
		e.afterWake(t, h)
	}
}

// wakeBlock clears block bi's dormancy and takes it out of the heap.
func (e *partEngine) wakeBlock(bi int) {
	b := e.blocks[bi]
	b.dormant = false
	b.quiet = 0
	e.active[bi] = true
	e.woken = append(e.woken, bi)
	e.sleeping.remove(bi)
}

// sleep puts block bi to sleep after the accepted step that ended at t:
// it enters the heap at brk.next(t), or at its front if a boundary row
// already drifted, and the polled list when a source can move.
func (e *partEngine) sleep(bi int, t float64) {
	b := e.blocks[bi]
	b.dormant = true
	e.active[bi] = false
	b.wakeAt = b.brk.next(t)
	e.sleeping.push(bi)
	if b.movable {
		e.polled = append(e.polled, bi)
	}
	for i, row := range b.bndRows {
		if math.Abs(e.x[row]-b.bndVal[i]) > e.dormTol {
			e.wakeNext(bi)
			return
		}
	}
}

// wakeNext moves dormant block bi to the front of the heap: it wakes at
// the next attempt.
func (e *partEngine) wakeNext(bi int) {
	e.blocks[bi].wakeAt = math.Inf(-1)
	e.sleeping.up(e.sleeping.pos[bi])
}

// checkReaders wakes at the next attempt every dormant block whose
// boundary input on a row of the awake blocks drifted past dormTol with
// this accept.
func (e *partEngine) checkReaders() {
	if !e.dormancy {
		return
	}
	for _, bi := range e.activeIdx {
		for _, r := range e.blocks[bi].readers {
			rb := e.blocks[r.blk]
			if rb.dormant && math.Abs(e.x[r.row]-rb.bndVal[r.bnd]) > e.dormTol {
				e.wakeNext(r.blk)
			}
		}
	}
}

// sourceDrifted reports whether a source input of dormant block b
// moved past its threshold at tn since the block last solved.
func (e *partEngine) sourceDrifted(b *pBlock, tn float64) bool {
	for j, w := range b.vSrcs {
		if math.Abs(w.At(tn)-b.vSrcVal[j]) > e.dormTol {
			return true
		}
	}
	for j, w := range b.iSrcs {
		if e.iSourceDrifted(w.At(tn), b.iSrcVal[j]) {
			return true
		}
	}
	return false
}

// mergeSorted appends the sorted union of the ascending lists a and b
// to dst.
func mergeSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
