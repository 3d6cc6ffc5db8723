package lint

// This file defines the abstract machine state of the cross-thread
// analysis and its transfer function: one aval per integer register, the
// queue-mapping state, a bound on the thread identifier, recorded compare
// predicates (so a branch on `slt` refines the compared registers), and a
// register-difference matrix. The difference matrix is the small
// relational component: strength-reduced loops advance pointers in
// lockstep with a separate counter, and only the known difference
// `pointer - counter` lets the counter's loop bound carry over to the
// pointer's address range.

import (
	"slices"

	"hirata/internal/isa"
)

// predicate records that a register currently holds the boolean result of
// a compare instruction over operands that have not been redefined since.
type predicate struct {
	op       isa.Opcode // SLT, SLTI, SEQ, SNE or SGE; NOP = none
	rs1, rs2 isa.Reg
	imm      int64
	useImm   bool
}

// unknownDiff marks a register-difference entry with no information.
const unknownDiff = int64(-1) << 62

// astate is the abstract state at one program point. Its per-register parts
// span the program's n named registers (interAnalysis.named): regs and
// preds hold n entries, dv and rel are n×n matrices stored row by row.
type astate struct {
	bot   bool
	q     qstate
	tid   tidRange
	regs  []aval // integer registers; FP values are not tracked
	preds []predicate
	// dv[i*n+j], when not unknownDiff, is the exact difference
	// regs[i] - regs[j] between the two registers' concrete values.
	dv []int64
	// rel[i*n+j], when its k is non-zero, is an exact scaled relation
	// regs[i] = k*regs[j] + d between concrete values. It captures
	// what dv's unit differences cannot: a pointer advanced in
	// lockstep with a counter (p += 4; i += 1), where only the
	// counter is compared against a loop limit. Facts are fitted at
	// join points from constant pairs (two points determine the
	// line) and dropped as soon as a join fails to confirm them.
	rel []affRel
}

// newStates returns k states over n registers, each part of every state
// carved from one backing array.
func newStates(k, n int) []astate {
	sts := make([]astate, k)
	regs, preds := make([]aval, k*n), make([]predicate, k*n)
	dv, rel := make([]int64, k*n*n), make([]affRel, k*n*n)
	for i := range sts {
		a, m := i*n, i*n*n
		sts[i] = astate{regs: regs[a : a+n], preds: preds[a : a+n], dv: dv[m : m+n*n], rel: rel[m : m+n*n]}
	}
	return sts
}

// copyFrom overwrites st with src; both must span the same registers.
func (st *astate) copyFrom(src *astate) {
	st.bot, st.q, st.tid = src.bot, src.q, src.tid
	copy(st.regs, src.regs)
	copy(st.preds, src.preds)
	copy(st.dv, src.dv)
	copy(st.rel, src.rel)
}

// affRel is one affine fact regs[i] = k*regs[j] + d. k == 0 means no
// relation (the zero value).
type affRel struct {
	k int64
	d int64
}

const (
	relKMax = 1 << 20 // scale factors stay small (shifts, strides)
	relCMax = 1 << 40 // constants involved stay well clear of overflow
)

// relHolds reports whether st provably satisfies regs[i] = k*regs[j] + d,
// which requires both sides to be known constants.
func relHolds(st *astate, i, j int, rel affRel) bool {
	c, ok := st.regs[i].isConst()
	s, ok2 := st.regs[j].isConst()
	if !ok || !ok2 || s > relCMax || s < -relCMax || c > relCMax || c < -relCMax {
		return false
	}
	return c == rel.k*s+rel.d
}

// fitRel discovers regs[i] = k*regs[j] + d at a join where both sides
// hold i and j as constants differing across the join: two points
// determine the line, and later joins keep the relation only while it
// stays true.
func fitRel(a, b *astate, i, j int) affRel {
	ca, aok := a.regs[i].isConst()
	cb, bok := b.regs[i].isConst()
	if !aok || !bok || ca == cb || ca > relCMax || ca < -relCMax || cb > relCMax || cb < -relCMax {
		return affRel{}
	}
	sa, ok1 := a.regs[j].isConst()
	sb, ok2 := b.regs[j].isConst()
	if !ok1 || !ok2 || sa == sb || sa > relCMax || sa < -relCMax || sb > relCMax || sb < -relCMax {
		return affRel{}
	}
	num, den := ca-cb, sa-sb
	if num%den != 0 {
		return affRel{}
	}
	k := num / den
	if k == 0 || k > relKMax || k < -relKMax {
		return affRel{}
	}
	return affRel{k: k, d: ca - k*sa}
}

// joinRel keeps an affine fact across a join only when both sides
// provably satisfy it: equal facts, or a constant side on the line.
func joinRel(a, b *astate, i, j int) affRel {
	c := i*len(a.regs) + j
	ra, rb := a.rel[c], b.rel[c]
	switch {
	case ra.k == 0 && rb.k == 0:
		return fitRel(a, b, i, j)
	case ra == rb:
		return ra
	case ra.k != 0 && relHolds(b, i, j, ra):
		return ra
	case rb.k != 0 && relHolds(a, i, j, rb):
		return rb
	}
	return affRel{}
}

// relTighten narrows register i's unbounded interval v through any of its
// affine relations to a bounded source.
func relTighten(st *astate, i int, v aval) aval {
	if v.bot || v.tc != 0 {
		return v
	}
	if v.lo > aNegInf && v.hi < aPosInf {
		return v
	}
	n := len(st.regs)
	for j := 1; j < n; j++ {
		rel := st.rel[i*n+j]
		if rel.k == 0 {
			continue
		}
		s := st.regs[j]
		if s.bot || s.tc != 0 || s.lo <= aNegInf || s.hi >= aPosInf {
			continue
		}
		lo := satAdd(satMul(rel.k, s.lo), rel.d)
		hi := satAdd(satMul(rel.k, s.hi), rel.d)
		if lo > hi {
			lo, hi = hi, lo
		}
		v.lo, v.hi = max64(v.lo, lo), min64(v.hi, hi)
	}
	return v.norm()
}

// setFresh makes st the state of a just-started thread: all registers
// zeroed by hardware (so every difference is exactly 0), no mappings.
func (st *astate) setFresh(tid tidRange) {
	st.bot, st.q, st.tid = false, unmappedQ(), tid
	for i := range st.regs {
		st.regs[i] = constVal(0)
		st.preds[i] = predicate{}
	}
	clear(st.dv)
	clear(st.rel)
}

// join merges src into dst and reports whether dst changed. With widen
// set, any interval bound still moving is widened: first to the nearest
// comparison threshold (a constant some compare or branch in this run
// tested against — the candidate loop bounds), then to infinity. The
// threshold stop is what lets `bne counter, limit`-guarded loops settle
// at the limit, where the not-equal refinement can hold them. The other
// components (congruences, differences, predicates, tid bounds, queue
// state) live in finite-height lattices and converge on their own.
// Each cell is joined before the old values it reads are overwritten: the
// affine facts fit both sides' old registers, joinVal folds tid terms with
// the old tid ranges, and widening compares with the old bounds.
func (ic *interCtx) join(dst, src *astate, widen bool) bool {
	if src.bot {
		return false
	}
	if dst.bot {
		dst.copyFrom(src)
		return true
	}
	n, changed := len(dst.regs), false
	for i := 0; i < n; i++ {
		if dst.preds[i] != src.preds[i] && dst.preds[i] != (predicate{}) {
			dst.preds[i], changed = predicate{}, true
		}
		for j := 0; j < n; j++ {
			c := i*n + j
			if dst.dv[c] != src.dv[c] && dst.dv[c] != unknownDiff {
				dst.dv[c], changed = unknownDiff, true
			}
			if j != i {
				if r := joinRel(dst, src, i, j); r != dst.rel[c] {
					dst.rel[c], changed = r, true
				}
			}
		}
	}
	old := ic.ia.oldRegs
	copy(old, dst.regs)
	for i, ov := range old {
		nv := joinVal(ov, src.regs[i], dst.tid, src.tid)
		if widen && !nv.bot && !ov.bot {
			if nv.lo < ov.lo {
				nv.lo = ic.ia.widenLo(nv.lo)
			}
			if nv.hi > ov.hi {
				nv.hi = ic.ia.widenHi(nv.hi)
			}
			nv = nv.norm()
		}
		dst.regs[i] = nv
	}
	q := dst.q.meet(src.q)
	tid := tidRange{min64(dst.tid.lo, src.tid.lo), max64(dst.tid.hi, src.tid.hi)}
	changed = changed || q != dst.q || tid != dst.tid
	dst.q, dst.tid = q, tid
	if widen {
		// Widening is per-register, but the relational facts are exact:
		// a register widened to infinity while its loop partner settled
		// at a threshold (pointer vs counter) gets its bound back from
		// the difference matrix or an affine fact. This is a narrowing
		// step and cannot undo termination: the derived bound follows
		// the partner's, which the thresholds stabilise.
		for i := range dst.regs {
			dst.regs[i] = relTighten(dst, i, dvTighten(dst, i))
		}
	}
	return changed || !slices.Equal(old, dst.regs)
}

// dvTighten narrows register i's unbounded interval through any exact
// difference to a bounded register with the same tid coefficient.
func dvTighten(st *astate, i int) aval {
	v := st.regs[i]
	if v.bot || (v.lo > aNegInf && v.hi < aPosInf) {
		return v
	}
	n := len(st.regs)
	for j := 0; j < n; j++ {
		d := st.dv[i*n+j]
		if j == i || d == unknownDiff {
			continue
		}
		w := st.regs[j]
		if w.bot || w.tc != v.tc {
			continue
		}
		if w.lo > aNegInf {
			v.lo = max64(v.lo, satAdd(w.lo, d))
		}
		if w.hi < aPosInf {
			v.hi = min64(v.hi, satAdd(w.hi, d))
		}
	}
	return v.norm()
}

// srcIsQueuePop reports whether reading r pops the incoming queue (or may,
// when the mapping state is unknown) instead of reading the register file.
func (ic *interCtx) srcIsQueuePop(st *astate, r isa.Reg) bool {
	if r.IsFP() {
		return st.q.inFP == qUnknown || (st.q.inFP != isa.NoReg && r == st.q.inFP)
	}
	if st.q.inInt == qUnknown {
		return ic.ia.a.qReadRegs.has(r)
	}
	return st.q.inInt != isa.NoReg && r == st.q.inInt
}

// srcVal reads an integer source register.
func (ic *interCtx) srcVal(st *astate, r isa.Reg) aval {
	if r == isa.R0 {
		return constVal(0)
	}
	if !r.Valid() || r.IsFP() {
		return topVal()
	}
	if ic.srcIsQueuePop(st, r) {
		return topVal() // the value came from another thread's queue push
	}
	i := ic.ia.idx(r)
	return relTighten(st, i, st.regs[i])
}

// clearRegDeps invalidates predicates that mention d (state index i) as an
// operand.
func clearRegDeps(st *astate, d isa.Reg, i int) {
	st.preds[i] = predicate{}
	for r := range st.preds {
		p := &st.preds[r]
		if p.op != isa.NOP && (p.rs1 == d || (!p.useImm && p.rs2 == d)) {
			*p = predicate{}
		}
	}
}

// write sets integer destination d to v, respecting queue-write diversion
// and clearing all relational facts about d.
func (ic *interCtx) write(st *astate, d isa.Reg, v aval) {
	if !d.Valid() || d == isa.R0 || d.IsFP() {
		return
	}
	if st.q.outInt == qUnknown {
		v = topVal() // the write may or may not be diverted to the FIFO
	} else if st.q.outInt != isa.NoReg && d == st.q.outInt {
		return // diverted into the outgoing FIFO; register file untouched
	}
	i, n := ic.ia.idx(d), len(st.regs)
	st.regs[i] = v.norm()
	for j := 0; j < n; j++ {
		st.dv[i*n+j], st.dv[j*n+i] = unknownDiff, unknownDiff
		st.rel[i*n+j], st.rel[j*n+i] = affRel{}, affRel{}
	}
	st.dv[i*n+i] = 0
	clearRegDeps(st, d, i)
}

// writeRel is write for d = s + c, additionally recording the difference
// relation (and its one-level closure through s's known differences).
func (ic *interCtx) writeRel(st *astate, d, s isa.Reg, c int64, v aval) {
	if !d.Valid() || d == isa.R0 || d.IsFP() {
		return
	}
	if st.q.outInt != isa.NoReg { // mapped or unknown: no reliable relation
		ic.write(st, d, v)
		return
	}
	if s.Valid() && !s.IsFP() && ic.srcIsQueuePop(st, s) {
		// d holds popped data + c, unrelated to the register file's s.
		ic.write(st, d, v)
		return
	}
	i, n := ic.ia.idx(d), len(st.regs)
	if d == s {
		// In-place increment: every known difference shifts by c,
		// and so does every affine fact touching d.
		st.regs[i] = v.norm()
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if st.dv[i*n+j] != unknownDiff {
				st.dv[i*n+j] += c
			}
			if st.dv[j*n+i] != unknownDiff {
				st.dv[j*n+i] -= c
			}
			// rj = k*d_old + rd  becomes  rj = k*d_new + (rd - k*c),
			// and d_new = k*rj + (rd + c).
			if r := st.rel[j*n+i]; r.k != 0 {
				st.rel[j*n+i] = shiftRel(r, -satMul(r.k, c))
			}
			st.rel[i*n+j] = shiftRel(st.rel[i*n+j], c)
		}
		clearRegDeps(st, d, i)
		return
	}
	ic.write(st, d, v)
	if !s.Valid() || s.IsFP() {
		return
	}
	k := ic.ia.idx(s)
	st.dv[i*n+k], st.dv[k*n+i] = c, -c
	for j := 0; j < n; j++ {
		if j == i || j == k {
			continue
		}
		if st.dv[k*n+j] != unknownDiff {
			st.dv[i*n+j] = st.dv[k*n+j] + c
			st.dv[j*n+i] = -st.dv[i*n+j]
		}
	}
	// d = s + c composes with every affine fact about s.
	for j := 0; j < n; j++ {
		if j == i || j == k {
			continue
		}
		st.rel[i*n+j] = shiftRel(st.rel[k*n+j], c)
	}
	st.rel[i*n+k] = affRel{k: 1, d: c}
}

// shiftRel adds c to a relation's constant term, dropping the fact if
// there is none or the term leaves the safe range.
func shiftRel(r affRel, c int64) affRel {
	if r.k == 0 {
		return affRel{}
	}
	r.d += c
	if r.d > relCMax || r.d < -relCMax {
		return affRel{}
	}
	return r
}

// writeScaled is write for d = s * k (k a positive constant),
// additionally recording the scaled relation so a later bound on s
// transfers to d.
func (ic *interCtx) writeScaled(st *astate, d, s isa.Reg, k int64, v aval) {
	ic.write(st, d, v)
	if st.q.outInt != isa.NoReg { // mapped or unknown: write may be diverted
		return
	}
	if !d.Valid() || d == isa.R0 || d.IsFP() || d == s {
		return
	}
	if !s.Valid() || s.IsFP() || s == isa.R0 || ic.srcIsQueuePop(st, s) {
		return
	}
	if k <= 0 || k > relKMax {
		return
	}
	st.rel[ic.ia.idx(d)*len(st.regs)+ic.ia.idx(s)] = affRel{k: k}
}

// clampOffset intersects the offset interval of the register at state
// index i (r0 at 0, -1 for none) with [lo, hi]. When prop is set, the
// refinement propagates one level through known register differences to
// registers with the same tid coefficient.
func (st *astate) clampOffset(i int, lo, hi int64, prop bool) {
	if st.bot || i < 0 {
		return
	}
	if i == 0 {
		if lo > 0 || hi < 0 {
			st.bot = true
		}
		return
	}
	v := st.regs[i]
	if v.bot {
		return
	}
	nl, nh := max64(v.lo, lo), min64(v.hi, hi)
	if nl == v.lo && nh == v.hi && !prop {
		// No change and no propagation to do. With prop set we still
		// walk the difference matrix: the bound can be fresh
		// information for a related register even when r itself was
		// already this tight (e.g. after widening only widened the
		// related register).
		return
	}
	v.lo, v.hi = nl, nh
	v = v.norm()
	if v.bot {
		st.bot = true
		return
	}
	st.regs[i] = v
	if !prop {
		return
	}
	n := len(st.regs)
	for j := 0; j < n; j++ {
		d := st.dv[j*n+i]
		if j == i || d == unknownDiff || st.regs[j].tc != v.tc {
			continue
		}
		st.clampOffset(j, satAdd(lo, d), satAdd(hi, d), false)
		if st.bot {
			return
		}
	}
}

// clampTid intersects the state's thread-identifier bound.
func (st *astate) clampTid(lo, hi int64) {
	if st.bot {
		return
	}
	nl, nh := max64(st.tid.lo, lo), min64(st.tid.hi, hi)
	if nl > nh {
		st.bot = true
		return
	}
	st.tid = tidRange{nl, nh}
}

// cmpKind is the comparison asserted along a refined CFG edge.
type cmpKind uint8

const (
	ckLT cmpKind = iota // x < y
	ckLE                // x <= y
	ckEQ                // x == y
	ckNE                // x != y
)

// isTidPure reports whether v is exactly tid + c.
func isTidPure(v aval) (c int64, ok bool) {
	if !v.bot && v.tc == 1 && v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

// floorDiv and ceilDiv round a/b down resp. up (Go's / truncates).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// affineBounds returns the concrete value range of v (tc*tid + offset)
// under the state's tid bound.
func affineBounds(v aval, tr tidRange) (lo, hi int64) {
	a, b := satMul(v.tc, tr.lo), satMul(v.tc, tr.hi)
	if a > b {
		a, b = b, a
	}
	return satAdd(v.lo, a), satAdd(v.hi, b)
}

// clampAffineLE refines st under tc*tid + offset(i) <= bound, narrowing
// both the offset interval and the tid range.
func (st *astate) clampAffineLE(i int, v aval, bound int64) {
	if st.bot || v.bot {
		return
	}
	tlo, thi := satMul(v.tc, st.tid.lo), satMul(v.tc, st.tid.hi)
	st.clampOffset(i, aNegInf, satAdd(bound, -min64(tlo, thi)), true)
	if st.bot || v.lo <= aNegInf || bound >= aPosInf {
		return
	}
	switch {
	case v.tc > 0:
		st.clampTid(st.tid.lo, floorDiv(bound-v.lo, v.tc))
	case v.tc < 0:
		st.clampTid(ceilDiv(bound-v.lo, v.tc), st.tid.hi)
	}
}

// clampAffineGE refines st under tc*tid + offset(i) >= bound.
func (st *astate) clampAffineGE(i int, v aval, bound int64) {
	if st.bot || v.bot {
		return
	}
	tlo, thi := satMul(v.tc, st.tid.lo), satMul(v.tc, st.tid.hi)
	st.clampOffset(i, satAdd(bound, -max64(tlo, thi)), aPosInf, true)
	if st.bot || v.hi >= aPosInf || bound <= aNegInf {
		return
	}
	switch {
	case v.tc > 0:
		st.clampTid(ceilDiv(bound-v.hi, v.tc), st.tid.hi)
	case v.tc < 0:
		st.clampTid(st.tid.lo, floorDiv(bound-v.hi, v.tc))
	}
}

// assertCmp refines st under the assumption value(x) <kind> value(y).
// rx/ry are the registers to refine (isa.NoReg for constants).
func (ic *interCtx) assertCmp(st *astate, kind cmpKind, x isa.Reg, vx aval, y isa.Reg, vy aval) {
	if st.bot || vx.bot || vy.bot {
		return
	}
	rx, ry := ic.ia.idx(x), ic.ia.idx(y)
	switch {
	case vx.tc == vy.tc:
		// Equal tid terms cancel: the relation holds between offsets.
		switch kind {
		case ckLT:
			if vx.lo >= vy.hi {
				st.bot = true
				return
			}
			st.clampOffset(rx, aNegInf, satAdd(vy.hi, -1), true)
			st.clampOffset(ry, satAdd(vx.lo, 1), aPosInf, true)
		case ckLE:
			if vx.lo > vy.hi {
				st.bot = true
				return
			}
			st.clampOffset(rx, aNegInf, vy.hi, true)
			st.clampOffset(ry, vx.lo, aPosInf, true)
		case ckEQ:
			if vx.lo > vy.hi || vy.lo > vx.hi {
				st.bot = true
				return
			}
			st.clampOffset(rx, vy.lo, vy.hi, true)
			st.clampOffset(ry, vx.lo, vx.hi, true)
		case ckNE:
			if vx.lo == vx.hi && vy.lo == vy.hi && vx.lo == vy.lo {
				st.bot = true
				return
			}
			if c := vy.lo; vy.lo == vy.hi {
				if vx.lo == c {
					st.clampOffset(rx, c+1, aPosInf, true)
				} else if vx.hi == c {
					st.clampOffset(rx, aNegInf, c-1, true)
				}
			}
			if c := vx.lo; vx.lo == vx.hi {
				if vy.lo == c {
					st.clampOffset(ry, c+1, aPosInf, true)
				} else if vy.hi == c {
					st.clampOffset(ry, aNegInf, c-1, true)
				}
			}
		}
	case vy.tc == 0:
		// An affine value(x) = tc*tid + offset against a tid-free y.
		xlo, xhi := affineBounds(vx, st.tid)
		switch kind {
		case ckLT:
			if xlo >= vy.hi {
				st.bot = true
				return
			}
			st.clampAffineLE(rx, vx, satAdd(vy.hi, -1))
			st.clampOffset(ry, satAdd(xlo, 1), aPosInf, true)
		case ckLE:
			if xlo > vy.hi {
				st.bot = true
				return
			}
			st.clampAffineLE(rx, vx, vy.hi)
			st.clampOffset(ry, xlo, aPosInf, true)
		case ckEQ:
			if xlo > vy.hi || vy.lo > xhi {
				st.bot = true
				return
			}
			st.clampAffineLE(rx, vx, vy.hi)
			st.clampAffineGE(rx, vx, vy.lo)
			if !st.bot {
				st.clampOffset(ry, xlo, xhi, true)
			}
		case ckNE:
			c, ok := isTidPure(vx)
			if ok && vy.lo == vy.hi {
				t := vy.lo - c
				if st.tid.lo == t {
					st.clampTid(t+1, st.tid.hi)
				} else if st.tid.hi == t {
					st.clampTid(st.tid.lo, t-1)
				}
			}
		}
	case vx.tc == 0:
		// A tid-free x against an affine value(y) = tc*tid + offset.
		ylo, yhi := affineBounds(vy, st.tid)
		switch kind {
		case ckLT:
			if vx.lo >= yhi {
				st.bot = true
				return
			}
			st.clampAffineGE(ry, vy, satAdd(vx.lo, 1))
			st.clampOffset(rx, aNegInf, satAdd(yhi, -1), true)
		case ckLE:
			if vx.lo > yhi {
				st.bot = true
				return
			}
			st.clampAffineGE(ry, vy, vx.lo)
			st.clampOffset(rx, aNegInf, yhi, true)
		case ckEQ:
			if vx.lo > yhi || ylo > vx.hi {
				st.bot = true
				return
			}
			st.clampAffineLE(ry, vy, vx.hi)
			st.clampAffineGE(ry, vy, vx.lo)
			if !st.bot {
				st.clampOffset(rx, ylo, yhi, true)
			}
		case ckNE:
			c, ok := isTidPure(vy)
			if ok && vx.lo == vx.hi {
				t := vx.lo - c
				if st.tid.lo == t {
					st.clampTid(t+1, st.tid.hi)
				} else if st.tid.hi == t {
					st.clampTid(st.tid.lo, t-1)
				}
			}
		}
	}
}

// applyPred re-asserts the compare recorded for register r, given whether
// the compare's condition held (r was nonzero) or failed (r was zero).
func (ic *interCtx) applyPred(st *astate, r isa.Reg, holds bool) {
	if st.bot || !r.Valid() || r.IsFP() || r == isa.R0 {
		return
	}
	p := st.preds[ic.ia.idx(r)]
	if p.op == isa.NOP {
		return
	}
	vx := ic.srcVal(st, p.rs1)
	ry := p.rs2
	var vy aval
	if p.useImm {
		ry, vy = isa.NoReg, constVal(p.imm)
	} else {
		vy = ic.srcVal(st, ry)
	}
	switch p.op {
	case isa.SLT, isa.SLTI:
		if holds {
			ic.assertCmp(st, ckLT, p.rs1, vx, ry, vy)
		} else {
			ic.assertCmp(st, ckLE, ry, vy, p.rs1, vx)
		}
	case isa.SGE:
		if holds {
			ic.assertCmp(st, ckLE, ry, vy, p.rs1, vx)
		} else {
			ic.assertCmp(st, ckLT, p.rs1, vx, ry, vy)
		}
	case isa.SEQ:
		k := ckEQ
		if !holds {
			k = ckNE
		}
		ic.assertCmp(st, k, p.rs1, vx, ry, vy)
	case isa.SNE:
		k := ckNE
		if !holds {
			k = ckEQ
		}
		ic.assertCmp(st, k, p.rs1, vx, ry, vy)
	}
}

// refine narrows st along one outcome of a conditional branch.
func (ic *interCtx) refine(st *astate, in isa.Instruction, taken bool) {
	if st.bot {
		return
	}
	v1 := ic.srcVal(st, in.Rs1)
	switch in.Op {
	case isa.BEQZ, isa.BNEZ:
		zero := (in.Op == isa.BEQZ) == taken
		if zero {
			ic.assertCmp(st, ckEQ, in.Rs1, v1, isa.NoReg, constVal(0))
			ic.applyPred(st, in.Rs1, false)
		} else {
			ic.assertCmp(st, ckNE, in.Rs1, v1, isa.NoReg, constVal(0))
			ic.applyPred(st, in.Rs1, true)
		}
	case isa.BLTZ:
		if taken {
			ic.assertCmp(st, ckLE, in.Rs1, v1, isa.NoReg, constVal(-1))
		} else {
			ic.assertCmp(st, ckLE, isa.NoReg, constVal(0), in.Rs1, v1)
		}
	case isa.BGEZ:
		if taken {
			ic.assertCmp(st, ckLE, isa.NoReg, constVal(0), in.Rs1, v1)
		} else {
			ic.assertCmp(st, ckLE, in.Rs1, v1, isa.NoReg, constVal(-1))
		}
	case isa.BEQ, isa.BNE:
		v2 := ic.srcVal(st, in.Rs2)
		eq := (in.Op == isa.BEQ) == taken
		if eq {
			ic.assertCmp(st, ckEQ, in.Rs1, v1, in.Rs2, v2)
		} else {
			ic.assertCmp(st, ckNE, in.Rs1, v1, in.Rs2, v2)
		}
	}
}

// cmpEval abstractly evaluates a compare over a and b (SLT/SLTI share SLT).
func cmpEval(op isa.Opcode, a, b aval, tr tidRange) aval {
	if a.bot || b.bot {
		return botVal()
	}
	if a.tc != b.tc {
		a, b = a.foldTid(tr), b.foldTid(tr)
	}
	lt := -1 // a < b: 1 always, 0 never, -1 unknown
	switch {
	case a.hi < b.lo:
		lt = 1
	case a.lo >= b.hi:
		lt = 0
	}
	eq := -1 // a == b: 1 always, 0 never, -1 unknown
	switch {
	case a.lo == a.hi && b.lo == b.hi && a.lo == b.lo:
		eq = 1
	case a.hi < b.lo || b.hi < a.lo:
		eq = 0
	case a.lo == a.hi && !offsetView(b).member(a.lo):
		eq = 0
	case b.lo == b.hi && !offsetView(a).member(b.lo):
		eq = 0
	}
	bool01 := func(v int) aval {
		if v < 0 {
			return aval{lo: 0, hi: 1, m: 1}
		}
		return constVal(int64(v))
	}
	switch op {
	case isa.SLT, isa.SLTI:
		return bool01(lt)
	case isa.SGE:
		if lt < 0 {
			return bool01(-1)
		}
		return bool01(1 - lt)
	case isa.SEQ:
		return bool01(eq)
	case isa.SNE:
		if eq < 0 {
			return bool01(-1)
		}
		return bool01(1 - eq)
	}
	return aval{lo: 0, hi: 1, m: 1}
}

// offsetView strips the tid coefficient for membership tests where equal
// tid terms have already cancelled.
func offsetView(v aval) aval {
	v.tc = 0
	return v
}

// branchOutcome decides a conditional branch under st: 1 always taken,
// 0 never taken, -1 undecidable.
func (ic *interCtx) branchOutcome(st *astate, in isa.Instruction) int {
	v1 := ic.srcVal(st, in.Rs1)
	var r aval
	switch in.Op {
	case isa.BEQZ:
		r = cmpEval(isa.SEQ, v1, constVal(0), st.tid)
	case isa.BNEZ:
		r = cmpEval(isa.SNE, v1, constVal(0), st.tid)
	case isa.BLTZ:
		r = cmpEval(isa.SLT, v1, constVal(0), st.tid)
	case isa.BGEZ:
		r = cmpEval(isa.SGE, v1, constVal(0), st.tid)
	case isa.BEQ:
		r = cmpEval(isa.SEQ, v1, ic.srcVal(st, in.Rs2), st.tid)
	case isa.BNE:
		r = cmpEval(isa.SNE, v1, ic.srcVal(st, in.Rs2), st.tid)
	default:
		return -1
	}
	if c, ok := r.isConst(); ok {
		return int(c)
	}
	return -1
}

// step advances st across the instruction at pc.
func (ic *interCtx) step(st *astate, pc int) {
	if st.bot {
		return
	}
	in := ic.ia.a.text[pc]
	imm := int64(in.Imm)
	switch in.Op {
	case isa.ADD:
		a, b := ic.srcVal(st, in.Rs1), ic.srcVal(st, in.Rs2)
		v := addVals(a, b)
		if c, ok := b.isConst(); ok {
			ic.writeRel(st, in.Rd, in.Rs1, c, v)
		} else if c, ok := a.isConst(); ok {
			ic.writeRel(st, in.Rd, in.Rs2, c, v)
		} else {
			ic.write(st, in.Rd, v)
		}
	case isa.SUB:
		a, b := ic.srcVal(st, in.Rs1), ic.srcVal(st, in.Rs2)
		v := subVals(a, b)
		if c, ok := b.isConst(); ok {
			ic.writeRel(st, in.Rd, in.Rs1, -c, v)
		} else {
			ic.write(st, in.Rd, v)
		}
	case isa.ADDI:
		ic.writeRel(st, in.Rd, in.Rs1, imm, addVals(ic.srcVal(st, in.Rs1), constVal(imm)))
	case isa.LIH:
		ic.write(st, in.Rd, constVal(imm<<14))
	case isa.AND, isa.OR, isa.XOR:
		a, b := ic.srcVal(st, in.Rs1), ic.srcVal(st, in.Rs2)
		v := topVal()
		ca, aok := a.isConst()
		cb, bok := b.isConst()
		switch {
		case aok && bok:
			switch in.Op {
			case isa.AND:
				v = constVal(ca & cb)
			case isa.OR:
				v = constVal(ca | cb)
			case isa.XOR:
				v = constVal(ca ^ cb)
			}
		case in.Op == isa.AND && a.tc == 0 && b.tc == 0 && a.lo >= 0 && b.lo >= 0:
			v = aval{lo: 0, hi: min64(a.hi, b.hi), m: 1}.norm()
		}
		ic.write(st, in.Rd, v)
	case isa.ANDI:
		v := topVal()
		a := ic.srcVal(st, in.Rs1)
		if c, ok := a.isConst(); ok {
			v = constVal(c & imm)
		} else if imm >= 0 {
			v = aval{lo: 0, hi: imm, m: 1}.norm()
		}
		ic.write(st, in.Rd, v)
	case isa.ORI, isa.XORI:
		v := topVal()
		if c, ok := ic.srcVal(st, in.Rs1).isConst(); ok {
			if in.Op == isa.ORI {
				v = constVal(c | imm)
			} else {
				v = constVal(c ^ imm)
			}
		}
		ic.write(st, in.Rd, v)
	case isa.SLT, isa.SEQ, isa.SNE, isa.SGE:
		a, b := ic.srcVal(st, in.Rs1), ic.srcVal(st, in.Rs2)
		ic.ia.noteCmp(a)
		ic.ia.noteCmp(b)
		pin := in
		pin.Rs1 = ic.aliasReg(st, pin.Rs1, pin.Rd)
		pin.Rs2 = ic.aliasReg(st, pin.Rs2, pin.Rd)
		ic.write(st, in.Rd, cmpEval(in.Op, a, b, st.tid))
		ic.recordPred(st, pin, false)
	case isa.SLTI:
		a := ic.srcVal(st, in.Rs1)
		ic.ia.noteCmp(a)
		ic.ia.noteCmp(constVal(imm))
		pin := in
		pin.Rs1 = ic.aliasReg(st, pin.Rs1, pin.Rd)
		ic.write(st, in.Rd, cmpEval(isa.SLT, a, constVal(imm), st.tid))
		ic.recordPred(st, pin, true)
	case isa.SLL, isa.SRL, isa.SRA:
		a, b := ic.srcVal(st, in.Rs1), ic.srcVal(st, in.Rs2)
		v := topVal()
		if sh, ok := b.isConst(); ok {
			v = shiftVal(in.Op, a, sh)
		}
		ic.write(st, in.Rd, v)
	case isa.SLLI:
		v := shiftVal(isa.SLL, ic.srcVal(st, in.Rs1), imm)
		if imm > 0 && imm < 63 {
			ic.writeScaled(st, in.Rd, in.Rs1, 1<<uint(imm), v)
		} else {
			ic.write(st, in.Rd, v)
		}
	case isa.SRLI:
		ic.write(st, in.Rd, shiftVal(isa.SRL, ic.srcVal(st, in.Rs1), imm))
	case isa.SRAI:
		ic.write(st, in.Rd, shiftVal(isa.SRA, ic.srcVal(st, in.Rs1), imm))
	case isa.MUL:
		a, b := ic.srcVal(st, in.Rs1), ic.srcVal(st, in.Rs2)
		if c, ok := b.isConst(); ok {
			ic.writeScaled(st, in.Rd, in.Rs1, c, mulConst(a, c))
		} else if c, ok := a.isConst(); ok {
			ic.writeScaled(st, in.Rd, in.Rs2, c, mulConst(b, c))
		} else if a.tc == 0 && b.tc == 0 && a.lo >= 0 && b.lo >= 0 {
			ic.write(st, in.Rd, aval{lo: satMul(a.lo, b.lo), hi: satMul(a.hi, b.hi), m: 1}.norm())
		} else {
			ic.write(st, in.Rd, topVal())
		}
	case isa.DIV:
		v := topVal()
		if c, ok := ic.srcVal(st, in.Rs2).isConst(); ok && c > 0 {
			v = divConst(ic.srcVal(st, in.Rs1).foldTid(st.tid), c)
		}
		ic.write(st, in.Rd, v)
	case isa.REM:
		v := topVal()
		if c, ok := ic.srcVal(st, in.Rs2).isConst(); ok && c > 0 {
			v = remConst(ic.srcVal(st, in.Rs1).foldTid(st.tid), c)
		}
		ic.write(st, in.Rd, v)
	case isa.FEQ, isa.FLT, isa.FLE:
		ic.write(st, in.Rd, aval{lo: 0, hi: 1, m: 1})
	case isa.FTOI:
		ic.write(st, in.Rd, topVal())
	case isa.LW:
		addr := addVals(ic.srcVal(st, in.Rs1), constVal(imm))
		ic.write(st, in.Rd, ic.ia.loadVal(addr))
	case isa.JAL:
		ic.write(st, in.Rd, constVal(int64(pc)+1))
	case isa.TID:
		ic.write(st, in.Rd, aval{tc: 1, m: 1})
	case isa.QEN:
		st.q.inInt, st.q.outInt = in.Rs1, in.Rs2
	case isa.QENF:
		st.q.inFP, st.q.outFP = in.Rs1, in.Rs2
	case isa.BEQ, isa.BNE:
		ic.ia.noteCmp(ic.srcVal(st, in.Rs1))
		ic.ia.noteCmp(ic.srcVal(st, in.Rs2))
	case isa.BEQZ, isa.BNEZ, isa.BLTZ, isa.BGEZ:
		ic.ia.noteCmp(constVal(0))
	case isa.QDIS:
		st.q = unmappedQ()
	}
}

// aliasReg returns r unless it equals avoid, in which case it returns
// another register holding exactly the same value (a zero entry in the
// difference matrix) or NoReg. Compare instructions that overwrite their
// own operand (slt r14, r14, r15 — the compiler's accumulator idiom) use
// this to record the predicate against the surviving copy; the caller
// must resolve aliases before the write clears the destination's facts.
func (ic *interCtx) aliasReg(st *astate, r, avoid isa.Reg) isa.Reg {
	if r != avoid || !r.Valid() || r.IsFP() {
		return r
	}
	i, n := ic.ia.idx(r), len(st.regs)
	for j, rj := range ic.ia.named {
		if rj != avoid && st.dv[i*n+j] == 0 {
			return rj
		}
	}
	return isa.NoReg
}

// recordPred remembers the compare at in for later branch refinement,
// unless an operand's value came through the queue (popped data is not the
// register file's value) or the destination overlaps an operand.
func (ic *interCtx) recordPred(st *astate, in isa.Instruction, useImm bool) {
	d := in.Rd
	if st.bot || !d.Valid() || d == isa.R0 || d.IsFP() {
		return
	}
	if st.q.outInt != isa.NoReg { // write may be diverted
		return
	}
	if !in.Rs1.Valid() || (!useImm && !in.Rs2.Valid()) {
		return // operand destroyed by the write with no surviving alias
	}
	if d == in.Rs1 || (!useImm && d == in.Rs2) {
		return
	}
	if ic.srcIsQueuePop(st, in.Rs1) || (!useImm && ic.srcIsQueuePop(st, in.Rs2)) {
		return
	}
	op := in.Op
	if op == isa.SLTI {
		op = isa.SLT
	}
	st.preds[ic.ia.idx(d)] = predicate{op: op, rs1: in.Rs1, rs2: in.Rs2, imm: int64(in.Imm), useImm: useImm}
}

// shiftVal evaluates a shift by a known amount.
func shiftVal(op isa.Opcode, a aval, sh int64) aval {
	if a.bot {
		return a
	}
	if sh < 0 || sh > 62 {
		return topVal()
	}
	switch op {
	case isa.SLL:
		if sh >= 43 {
			return topVal()
		}
		return mulConst(a, int64(1)<<uint(sh))
	case isa.SRA, isa.SRL:
		if op == isa.SRL && a.lo < 0 {
			return topVal() // unsigned reinterpretation of a negative value
		}
		if a.tc != 0 {
			return topVal()
		}
		out := aval{lo: a.lo, hi: a.hi, m: 1}
		if out.lo > aNegInf {
			out.lo = a.lo >> uint(sh)
		}
		if out.hi < aPosInf {
			out.hi = a.hi >> uint(sh)
		}
		return out.norm()
	}
	return topVal()
}

// edgeState returns the state entering e's target from a block whose
// out-state is out: out itself on a plain edge, else tmp holding the
// edge's transformed copy. last is the source block's final instruction
// (for branch refinement).
func (ic *interCtx) edgeState(tmp, out *astate, e edge, last isa.Instruction) *astate {
	if out.bot {
		return out
	}
	switch e.kind {
	case edgeFork:
		// The continuation runs in the forking thread and in every child;
		// children start with zeroed banks and any tid in [0, T-1].
		tmp.copyFrom(out)
		ic.join(tmp, ic.ia.child, false)
		return tmp
	case edgeReturn:
		tmp.copyFrom(out)
		n := len(tmp.regs)
		for i := range tmp.regs {
			tmp.regs[i] = topVal()
			tmp.preds[i] = predicate{}
		}
		tmp.regs[0] = constVal(0)
		for c := range tmp.dv {
			tmp.dv[c] = unknownDiff
		}
		for i := 0; i < n; i++ {
			tmp.dv[i*n+i] = 0
		}
		clear(tmp.rel)
		if ic.ia.remapsQ {
			tmp.q = unknownQ() // the callee may have remapped the queues
		}
		return tmp
	}
	if e.br != brNone && last.Op.IsConditionalBranch() {
		tmp.copyFrom(out)
		ic.refine(tmp, last, e.br == brTaken)
		return tmp
	}
	return out
}
