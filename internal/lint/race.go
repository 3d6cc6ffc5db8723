package lint

// This file drives the cross-thread analysis (Config.InterThread): it runs
// the per-context fixpoints, folds provably read-only data words into
// constants (iterating until the folded run is self-consistent), and
// reports L010 (data race), L011 (out-of-range access), L012 (type-confused
// word access), L013 (dead store), and L014 (statically decided branch).

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"hirata/internal/asm"
	"hirata/internal/isa"
)

// isThreadCountSym reports whether a data label holds the thread count:
// the MinC runtime's __nthreads, or the workload convention gthreads /
// gthreadsXX. The runner initialises these to the configured thread-slot
// count, so the analysis reads them as that constant (and never folds them
// from the static image, where they hold a placeholder).
func isThreadCountSym(name string) bool {
	return name == "__nthreads" || name == "nthreads" || strings.HasPrefix(name, "gthreads")
}

func (a *analysis) runInterThread() {
	if len(a.text) == 0 || a.g == nil || len(a.g.blocks) == 0 {
		return
	}
	ia := &interAnalysis{a: a, prog: a.prog, memWords: a.cfg.MemWords}
	a.inter = ia
	ia.threads = int64(a.cfg.threadSlots())
	if n := int64(len(a.cfg.entries())); n > ia.threads {
		ia.threads = n
	}
	ia.remapsQ = slices.ContainsFunc(a.text, func(in isa.Instruction) bool {
		return in.Op == isa.QEN || in.Op == isa.QENF || in.Op == isa.QDIS
	})
	ia.threadCountAddrs = map[int64]bool{}
	if ia.prog != nil {
		for name, v := range ia.prog.Symbols {
			if isThreadCountSym(name) && v >= 0 {
				ia.threadCountAddrs[v] = true
			}
		}
	}
	ia.computeSolo()
	ia.computePostKill()
	ia.computeQueueCounts()
	ia.sizeStates()

	// Constant-folding loop, optimistic SCCP-style: assume every eligible
	// data word keeps its initial value, run, then evict any word some
	// store can reach and re-run. A fixpoint set is self-justifying: the
	// run that assumed it produced store windows disjoint from it, so by
	// induction over any concrete execution the folded words never
	// change. The optimistic start matters — begun empty, unclamped loop
	// bounds make every store look unbounded, which would permanently
	// poison the set (the loop bounds themselves live in data words).
	if ia.prog != nil {
		ia.initFolded()
	}
	for round := 0; ; round++ {
		ia.runAll()
		if ia.gaveUp {
			return // out of budget: report nothing rather than guess
		}
		if ia.prog == nil || !ia.shrinkFolded() {
			break // text-only mode has no data image to fold
		}
		if round >= 5 {
			clear(ia.folded)
			ia.runAll()
			if ia.gaveUp {
				return
			}
			break
		}
	}

	ia.checkRaces()
	ia.checkAddresses()
	ia.checkBranches()
	if ia.a.cfg.Deadlock {
		ia.checkSpins()
	}
}

// runAll runs fixpoint and replay for every context under the current
// constant map, resetting all per-run observations.
func (ia *interAnalysis) runAll() {
	ia.accesses, ia.storeAddrs = nil, nil
	ia.brMask = map[int]int{}
	ia.qUncertain = [2]bool{}
	ia.thresholds = map[int64]bool{}
	budget := visitCap
	for ci, e := range ia.a.cfg.entries() {
		if e < 0 || e >= len(ia.a.text) {
			continue
		}
		ic := ia.runCtx(ci, e, &budget)
		if ia.gaveUp {
			return
		}
		ia.replay(ic)
	}
}

// initFolded marks every fold-eligible data word as folded: the
// optimistic assumption the folding loop starts from. Words are read from
// the explicit data image, sorted by address (the assembler's order).
func (ia *interAnalysis) initFolded() {
	p := ia.prog
	ia.image = p.Data
	byAddr := func(a, b asm.DataWord) int { return cmp.Compare(a.Addr, b.Addr) }
	if !slices.IsSortedFunc(ia.image, byAddr) {
		ia.image = slices.Clone(p.Data)
		slices.SortStableFunc(ia.image, byAddr)
	}
	n := max64(p.DataEnd, 0)
	ia.folded = make([]uint64, (n+63)/64)
	for i := range ia.folded {
		ia.folded[i] = ^uint64(0)
	}
	if n%64 != 0 {
		ia.folded[len(ia.folded)-1] = 1<<(n%64) - 1
	}
	for addr := range ia.threadCountAddrs {
		ia.unfold(addr)
	}
	for addr, cls := range p.WordTypes {
		if cls == asm.WordFloat {
			ia.unfold(addr) // FP bit patterns are not useful integer constants
		}
	}
}

// isFolded reports whether the data word at addr reads as its initial value.
func (ia *interAnalysis) isFolded(addr int64) bool {
	return addr >= 0 && addr>>6 < int64(len(ia.folded)) && ia.folded[addr>>6]&(1<<(addr&63)) != 0
}

func (ia *interAnalysis) unfold(addr int64) {
	if ia.isFolded(addr) {
		ia.folded[addr>>6] &^= 1 << (addr & 63)
	}
}

// imageWord returns the initial value of the data word at addr: its last
// entry in the data image, or zero for a word no entry sets (.space).
func (ia *interAnalysis) imageWord(addr int64) int64 {
	d := ia.image
	i := sort.Search(len(d), func(i int) bool { return d[i].Addr > addr })
	if i > 0 && d[i-1].Addr == addr {
		return int64(d[i-1].Val)
	}
	return 0
}

// shrinkFolded unfolds every word some store in the just-finished run can
// reach and reports whether any of them was still folded.
func (ia *interAnalysis) shrinkFolded() bool {
	shrunk := false
	end := int64(len(ia.folded))*64 - 1
	for _, s := range ia.storeAddrs {
		if s.bot {
			continue
		}
		for addr := max64(s.lo, 0); addr <= min64(s.hi, end); addr++ {
			if ia.folded[addr>>6] == 0 {
				addr |= 63 // nothing folded in this block of 64 words
				continue
			}
			if ia.isFolded(addr) && s.member(addr) {
				ia.unfold(addr)
				shrunk = true
			}
		}
	}
	return shrunk
}

func boundedVal(v aval) bool {
	return !v.bot && v.lo > aNegInf && v.hi < aPosInf
}

// foldAccess folds an access's tid term using the thread bound at the
// access clipped to the real thread-slot range.
func (ia *interAnalysis) foldAccess(ac access) aval {
	tr := tidRange{max64(ac.tid.lo, 0), min64(ac.tid.hi, ia.threads-1)}
	if tr.lo > tr.hi {
		return botVal()
	}
	return ac.addr.foldTid(tr)
}

// setsOverlap reports whether two tid-free abstract address sets can share
// a concrete address. Exact for two pure arithmetic progressions (CRT);
// interval + residue-window approximate otherwise.
func setsOverlap(x, y aval) bool {
	if x.bot || y.bot {
		return false
	}
	if x.lo == x.hi {
		return y.member(x.lo)
	}
	if y.lo == y.hi {
		return x.member(y.lo)
	}
	lo, hi := max64(x.lo, y.lo), min64(x.hi, y.hi)
	if lo > hi {
		return false
	}
	g := gcd64(x.m, y.m)
	if g > 1 {
		r1, r2 := pmod(x.res, g), pmod(y.res, g)
		if pmod(r2-r1, g) > x.resW && pmod(r1-r2, g) > y.resW {
			return false // residue windows cannot meet modulo g
		}
	}
	if x.resW == 0 && y.resW == 0 && x.m > 1 && y.m > 1 {
		return progressionsMeet(x, y, lo, hi)
	}
	return true
}

// progressionsMeet solves v = x.res (mod x.m), v = y.res (mod y.m),
// lo <= v <= hi exactly via the Chinese remainder theorem.
func progressionsMeet(x, y aval, lo, hi int64) bool {
	g, p, _ := egcd(x.m, y.m)
	if pmod(y.res-x.res, g) != 0 {
		return false
	}
	if x.m/g > aPosInf/y.m {
		return true // lcm overflows the domain: stay conservative
	}
	l := x.m / g * y.m
	m2g := y.m / g
	t0 := mulMod(pmod((y.res-x.res)/g, m2g), pmod(p, m2g), m2g)
	v0 := x.res + x.m*t0 // in [0, lcm): the canonical solution
	first := lo + pmod(v0-lo, l)
	return first <= hi
}

// mulMod computes (a*b) mod m without overflow, for a,b >= 0, m > 0.
func mulMod(a, b, m int64) int64 {
	if m == 1 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	_, rem := bits.Div64(hi%uint64(m), lo, uint64(m))
	return int64(rem)
}

// checkRaces reports L010 for unordered cross-thread access pairs on
// overlapping addresses with at least one plain store.
func (ia *interAnalysis) checkRaces() {
	if ia.threads < 2 {
		return
	}
	type pairKey struct{ a, b int }
	seen := map[pairKey]bool{}
	for i := 0; i < len(ia.accesses); i++ {
		for j := i; j < len(ia.accesses); j++ {
			A, B := ia.accesses[i], ia.accesses[j]
			if !A.store && !B.store {
				continue
			}
			if A.prio || B.prio {
				// Priority stores are the architecture's ordered-store
				// escape hatch: they interlock until the issuing slot
				// holds the highest priority.
				continue
			}
			if A.solo || B.solo || A.postKill || B.postKill {
				continue
			}
			k := pairKey{min(A.pc, B.pc), max(A.pc, B.pc)}
			if seen[k] {
				continue
			}
			if t1, t2, ok := ia.racePair(A, B, i == j); ok {
				seen[k] = true
				at, oth, tAt, tOth := A, B, t1, t2
				if B.pc > A.pc {
					at, oth, tAt, tOth = B, A, t2, t1
				}
				kind := func(st bool) string {
					if st {
						return "store"
					}
					return "load"
				}
				ia.a.reportf(CodeDataRace, at.pc,
					"possible data race: this %s (thread %d) and the %s at pc %d (thread %d) can access the same address with no ordering between them",
					kind(at.store), tAt, kind(oth.store), oth.pc, tOth)
			}
		}
	}
}

// racePair searches for a concrete thread-id pair under which the two
// accesses overlap with no happens-before edge.
func (ia *interAnalysis) racePair(A, B access, same bool) (int64, int64, bool) {
	t1lo, t1hi := max64(A.tid.lo, 0), min64(A.tid.hi, ia.threads-1)
	t2lo, t2hi := max64(B.tid.lo, 0), min64(B.tid.hi, ia.threads-1)
	for t1 := t1lo; t1 <= t1hi; t1++ {
		for t2 := t2lo; t2 <= t2hi; t2++ {
			if t1 == t2 || (same && t2 <= t1) {
				continue
			}
			av := A.addr.substTid(t1)
			bv := B.addr.substTid(t2)
			if ia.prog == nil && (!boundedVal(av) || !boundedVal(bv)) {
				// Text-only mode has no data image to bound addresses;
				// require a bounded witness to keep the check useful.
				continue
			}
			if !setsOverlap(av, bv) {
				continue
			}
			if ia.hbQueue(A, B, t1, t2) || ia.hbQueue(B, A, t2, t1) {
				continue
			}
			return t1, t2, true
		}
	}
	return 0, 0, false
}

// checkAddresses reports L011 (out of range), L012 (type-confused access)
// and L013 (dead store) from the collected access sets.
func (ia *interAnalysis) checkAddresses() {
	reported := map[int]bool{}
	for _, ac := range ia.accesses {
		folded := ia.foldAccess(ac)
		if folded.bot || reported[ac.pc] {
			continue
		}
		switch {
		case folded.hi < 0:
			reported[ac.pc] = true
			ia.a.reportf(CodeOOBAccess, ac.pc,
				"effective address is always negative (range [%d, %d])", folded.lo, folded.hi)
			continue
		case ia.memWords > 0 && folded.lo >= ia.memWords:
			reported[ac.pc] = true
			ia.a.reportf(CodeOOBAccess, ac.pc,
				"effective address range [%d, %d] lies entirely beyond the %d-word memory", folded.lo, folded.hi, ia.memWords)
			continue
		}
		if ia.checkTyped(ac, folded) {
			reported[ac.pc] = true
			continue
		}
		if ia.checkDeadStore(ac, folded) {
			reported[ac.pc] = true
		}
	}
}

// checkTyped reports L012 when every address an access can touch holds a
// word of the opposite static type (.word vs .float).
func (ia *interAnalysis) checkTyped(ac access, folded aval) bool {
	p := ia.prog
	if p == nil || len(p.WordTypes) == 0 || !boundedVal(folded) || folded.hi-folded.lo > 8192 {
		return false
	}
	want := asm.WordInt
	if ac.fp {
		want = asm.WordFloat
	}
	found := false
	n := 0
	for x := folded.lo; x <= folded.hi; x++ {
		if !folded.member(x) {
			continue
		}
		if n++; n > 4096 {
			return false
		}
		cls := p.WordType(x)
		if cls == asm.WordUnknown || cls == want {
			return false
		}
		found = true
	}
	if !found {
		return false
	}
	have, acc := "float (.float)", "integer"
	if ac.fp {
		have, acc = "integer (.word)", "FP"
	}
	ia.a.reportf(CodeTypedAccess, ac.pc,
		"every address this %s access can touch (range [%d, %d]) holds a %s word", acc, folded.lo, folded.hi, have)
	return true
}

// checkDeadStore reports L013 for a plain store whose address set no load
// in the whole program can observe and that lies outside every labelled
// data object (labelled data is the program's declared output surface).
func (ia *interAnalysis) checkDeadStore(ac access, folded aval) bool {
	if ia.prog == nil || !ac.store || ac.prio || !boundedVal(folded) {
		return false
	}
	for _, o := range ia.accesses {
		if o.store {
			continue
		}
		if setsOverlap(folded, ia.foldAccess(o)) {
			return false
		}
	}
	for _, sym := range ia.prog.DataSyms {
		if sym.Size <= 0 {
			continue
		}
		if setsOverlap(folded, aval{lo: sym.Addr, hi: sym.Addr + sym.Size - 1, m: 1}) {
			return false
		}
	}
	ia.a.reportf(CodeDeadStore, ac.pc,
		"dead store: no load can observe address range [%d, %d] and it lies outside every labelled data object", folded.lo, folded.hi)
	return true
}

// checkBranches reports L014 for conditional branches whose outcome is the
// same, and statically known, in every context that reaches them.
func (ia *interAnalysis) checkBranches() {
	pcs := make([]int, 0, len(ia.brMask))
	for pc := range ia.brMask {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		switch ia.brMask[pc] {
		case 2:
			ia.a.reportf(CodeConstBranch, pc,
				"branch condition is statically always true: the branch is always taken")
		case 1:
			ia.a.reportf(CodeConstBranch, pc,
				"branch condition is statically always false: the branch never fires")
		}
	}
}
