package hier

// Block congruence is decided in two stages, split so the per-block
// cost on a million-node deck stays a few microseconds:
//
//  1. blockSig builds a cheap signature — element kinds, the positional
//     local-node numbering Adopt will reproduce, the exact bits of every
//     resistance, capacitance and inductance (tear resistors included),
//     initial state bits at every block row, and the tear topology.
//     Blocks are bucketed by a hash of the signature and matched on
//     the full signature bytes, so a collision never groups anything.
//     Blocks whose values differ land in different buckets, so a deck
//     where nothing repeats costs one signature per block, not a value
//     comparison per pair of blocks.
//  2. congruentValues compares a candidate member against a donor
//     element by element: every resistance, capacitance, inductance,
//     model parameter set and source waveform must match bit-for-bit.
//
// The split exists because an adopted block assembles through the
// donor's element structs for the whole run (part.Skeleton.Adopt
// shares Ckt and Sys): value equality is a hard correctness
// requirement, so it is established by direct comparison rather than
// by trusting an encoding. The donor's pivot order is only
// bit-transferable when the member's first assembled matrix equals the
// donor's — which is exactly layout + values + initial state, the
// union of the two checks. Device models and waveforms stay out of the
// signature and are compared by content: repeated instances share a
// netparse-interned model, but a cloned circuit carries equal models
// under distinct pointers.

import (
	"math"
	"reflect"

	"nanosim/internal/circuit"
	"nanosim/internal/part"
)

// sigWriter accumulates signature bytes in a reusable buffer and
// numbers a block's rows in first-appearance order: local[g] is global
// row g's local index plus one (0 = not seen), and rows lists the rows
// seen, so starting the next block clears only what this one touched.
type sigWriter struct {
	b     []byte
	local []int
	rows  []int
}

// reset starts a new block's signature.
func (w *sigWriter) reset() {
	w.b = w.b[:0]
	for _, g := range w.rows {
		w.local[g] = 0
	}
	w.rows = w.rows[:0]
}

func (w *sigWriter) tag(t byte) { w.b = append(w.b, t) }

func (w *sigWriter) u64(v uint64) {
	w.b = append(w.b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (w *sigWriter) i(v int) { w.u64(uint64(int64(v))) }

// f64bits records a float's exact bits (distinguishing -0 from +0 and
// any NaN payloads — strictly conservative).
func (w *sigWriter) f64bits(v float64) { w.u64(floatBits(v)) }

// blockSig writes block b's signature into w, replacing the previous
// block's. ok is false when the block contains an element kind the
// signature cannot describe; such a block never groups.
func blockSig(w *sigWriter, sk *part.Skeleton, b int, x0 []float64) bool {
	elems := sk.Ckt.Elements()
	w.reset()
	branches := 0
	node := func(n circuit.NodeID) {
		if n == circuit.Ground {
			w.i(-1)
			return
		}
		g := int(n) - 1
		li := w.local[g] - 1
		if li < 0 {
			// First appearance: the row Adopt will assign, plus the
			// initial state bits the warm factorization starts from.
			w.rows = append(w.rows, g)
			li = len(w.rows) - 1
			w.local[g] = li + 1
			w.f64bits(x0[g])
		}
		w.i(li)
	}

	for _, idx := range sk.Elems[b] {
		switch el := elems[idx].(type) {
		case *circuit.Resistor:
			w.tag('R')
			node(el.A)
			node(el.B)
			w.f64bits(el.R)
		case *circuit.Capacitor:
			w.tag('C')
			node(el.A)
			node(el.B)
			w.f64bits(el.C)
		case *circuit.Inductor:
			w.tag('L')
			node(el.A)
			node(el.B)
			w.f64bits(el.L)
			branches++
		case *circuit.VSource:
			w.tag('V')
			node(el.Pos)
			node(el.Neg)
			branches++
		case *circuit.ISource:
			w.tag('I')
			node(el.Pos)
			node(el.Neg)
		case *circuit.TwoTerm:
			w.tag('D')
			node(el.A)
			node(el.B)
		case *circuit.FET:
			w.tag('F')
			node(el.D)
			node(el.G)
			node(el.S)
		default:
			return false
		}
	}

	// Tear topology: side, local endpoint row, kind, stiffness, and
	// both endpoint initial voltages (the inputs of the tear's first
	// Norton half — the far end is outside the block's row set).
	p := sk.Part
	for _, ti := range p.Blocks[b].Tears {
		t := p.Tears[ti]
		gRow := t.A
		if t.BlockB == b {
			w.tag('b')
			gRow = t.B
		} else {
			w.tag('a')
		}
		li := w.local[gRow] - 1
		if li < 0 {
			// An owned row no internal element touches — Finish would
			// reject the partition; refuse to group rather than guess.
			return false
		}
		w.i(li)
		switch {
		case t.R != nil:
			w.tag('r')
			w.f64bits(t.R.R)
		case t.TT != nil:
			w.tag('d')
		default:
			return false
		}
		w.f64bits(x0[t.A])
		w.f64bits(x0[t.B])
		stiffTag := byte(0)
		if t.StiffA {
			stiffTag |= 1
		}
		if t.StiffB {
			stiffTag |= 2
		}
		w.tag(stiffTag)
	}

	w.i(len(w.rows))
	w.i(branches)
	return true
}

// congruentValues reports whether block b's element and tear content
// equals donor's bit-for-bit. Both blocks already share a layout
// signature, so kinds, counts and connectivity shapes line up
// position by position; only the values remain to be checked.
func congruentValues(sk *part.Skeleton, b, donor int) bool {
	elems := sk.Ckt.Elements()
	eb, ed := sk.Elems[b], sk.Elems[donor]
	if len(eb) != len(ed) {
		return false
	}
	for k := range eb {
		switch a := elems[eb[k]].(type) {
		case *circuit.Resistor:
			o, ok := elems[ed[k]].(*circuit.Resistor)
			if !ok || floatBits(a.R) != floatBits(o.R) {
				return false
			}
		case *circuit.Capacitor:
			o, ok := elems[ed[k]].(*circuit.Capacitor)
			if !ok || floatBits(a.C) != floatBits(o.C) ||
				a.HasIC != o.HasIC || floatBits(a.IC) != floatBits(o.IC) {
				return false
			}
		case *circuit.Inductor:
			o, ok := elems[ed[k]].(*circuit.Inductor)
			if !ok || floatBits(a.L) != floatBits(o.L) {
				return false
			}
		case *circuit.VSource:
			o, ok := elems[ed[k]].(*circuit.VSource)
			if !ok || floatBits(a.NoiseSigma) != floatBits(o.NoiseSigma) ||
				floatBits(a.ACMag) != floatBits(o.ACMag) ||
				floatBits(a.ACPhase) != floatBits(o.ACPhase) ||
				!contentEqual(a.W, o.W) {
				return false
			}
		case *circuit.ISource:
			o, ok := elems[ed[k]].(*circuit.ISource)
			if !ok || floatBits(a.NoiseSigma) != floatBits(o.NoiseSigma) ||
				floatBits(a.ACMag) != floatBits(o.ACMag) ||
				floatBits(a.ACPhase) != floatBits(o.ACPhase) ||
				!contentEqual(a.W, o.W) {
				return false
			}
		case *circuit.TwoTerm:
			o, ok := elems[ed[k]].(*circuit.TwoTerm)
			if !ok || !contentEqual(a.Model, o.Model) {
				return false
			}
		case *circuit.FET:
			o, ok := elems[ed[k]].(*circuit.FET)
			if !ok || !contentEqual(a.Model, o.Model) {
				return false
			}
		default:
			return false
		}
	}

	tb, td := sk.Part.Blocks[b].Tears, sk.Part.Blocks[donor].Tears
	if len(tb) != len(td) {
		return false
	}
	for k := range tb {
		ta, to := sk.Part.Tears[tb[k]], sk.Part.Tears[td[k]]
		switch {
		case ta.R != nil && to.R != nil:
			if floatBits(ta.R.R) != floatBits(to.R.R) {
				return false
			}
		case ta.TT != nil && to.TT != nil:
			if !contentEqual(ta.TT.Model, to.TT.Model) {
				return false
			}
		default:
			return false
		}
		if !stiffSideEqual(ta.StiffA, ta.SrcA, ta.SignA, to.StiffA, to.SrcA, to.SignA) ||
			!stiffSideEqual(ta.StiffB, ta.SrcB, ta.SignB, to.StiffB, to.SrcB, to.SignB) {
			return false
		}
	}
	return true
}

// stiffSideEqual compares one tear side's stiff pin: a stiff side's
// voltage is the source waveform times its sign at every step.
func stiffSideEqual(sa bool, srcA *circuit.VSource, signA float64, sb bool, srcB *circuit.VSource, signB float64) bool {
	if sa != sb {
		return false
	}
	if !sa {
		return true
	}
	return floatBits(signA) == floatBits(signB) && contentEqual(srcA.W, srcB.W)
}

// contentEqual compares two model or waveform values by content. Equal
// dynamic type is required; comparable kinds (all the built-in device
// models and waveforms except slice-backed ones) compare by
// dereferenced struct value, the rest fall back to reflect.DeepEqual.
// NaN-bearing values never compare equal — conservative: the block is
// materialized flat instead of shared.
func contentEqual(x, y any) bool {
	if x == nil || y == nil {
		return x == nil && y == nil
	}
	// Identity fast path: netparse interns models per .model card, so
	// instances from the same card compare in one pointer check. (Only
	// taken for pointer-shaped values — comparing non-comparable
	// dynamic types with == would panic.)
	if reflect.TypeOf(x).Kind() == reflect.Pointer && x == y {
		return true
	}
	tx := reflect.TypeOf(x)
	if tx != reflect.TypeOf(y) {
		return false
	}
	if tx.Kind() == reflect.Pointer {
		ex := tx.Elem()
		if ex.Kind() == reflect.Struct && ex.Comparable() {
			return reflect.ValueOf(x).Elem().Interface() == reflect.ValueOf(y).Elem().Interface()
		}
		return reflect.DeepEqual(x, y)
	}
	if tx.Comparable() {
		return x == y
	}
	return reflect.DeepEqual(x, y)
}

// floatBits shortens math.Float64bits at the many call sites above.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
