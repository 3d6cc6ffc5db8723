package lint

// This file runs the per-context abstract-interpretation fixpoint and
// derives the happens-before facts the race check needs: which accesses
// run while only one thread exists (before any ffork), which run after
// every other thread is provably dead (a must-executed kill), and which
// cross-thread access pairs are ordered by the queue-register ring.
//
// The queue argument: the ring connects slot t's outgoing FIFO to slot
// (t+1) mod T. If access A in thread t1 executes before t1's push number
// K+1 (i.e. at most K pushes precede A on every path), and access B in
// thread t2 = t1+1 executes after t2's pop number K+1 on every path, then
// B's (K+1)-th pop returned data from t1's (K+1)-th push, which FIFO order
// places after A. Hence A happens-before B.

import (
	"hirata/internal/asm"
	"hirata/internal/isa"
)

const (
	widenAfter = 12      // block updates before interval widening kicks in
	visitCap   = 50000   // total fixpoint visits before the analysis gives up
	hbInf      = 1 << 30 // saturated "unbounded pushes" counter value
)

// access is one memory access observed during the reporting replay, with
// its abstract address (tid term intact) and concurrency context.
type access struct {
	pc       int
	ctx      int
	store    bool
	prio     bool // swp/fswp: priority-ordered store, exempt from L010
	fp       bool
	addr     aval
	tid      tidRange
	solo     bool // runs before any ffork in a single-entry program
	postKill bool // runs after a must-executed kill (no ffork since)
}

// interAnalysis is the shared state of one cross-thread analysis run.
type interAnalysis struct {
	a        *analysis
	prog     *asm.Program // nil in text-only (StrictVerify) mode
	threads  int64
	memWords int64

	folded           []uint64       // one bit per data word: folded as its initial value
	image            []asm.DataWord // the data image, sorted by address
	threadCountAddrs map[int64]bool // data words holding the thread count

	accesses   []access
	storeAddrs []aval         // tid-folded store address sets, for const folding
	brMask     map[int]int    // per conditional-branch pc: 1 fall, 2 taken, 4 undecided
	qUncertain [2]bool        // queue mapping went unknown: disable HB per class
	gaveUp     bool           // fixpoint budget exhausted: suppress all reports
	thresholds map[int64]bool // constants compared against: widening stops

	soloBlocks []bool
	killedIn   []bool // must-killed (and not re-forked) at block entry

	// maxPush[class][ctx][pc] / minPop[class][ctx][pc]: queue operation
	// counts on paths from the context's entry to pc (before executing pc).
	maxPush, minPop [2][][]int

	named []isa.Reg // r0 and every integer register an instruction names, ascending
	slot  [32]int8  // each register's index in named, -1 if unnamed

	// in backs the per-block in-states of the context being analysed.
	// runAll replays each context before it runs the next, so one slice
	// serves every context of every round.
	in      []astate
	st, ns  *astate // working states: a block walk's and an edge's
	child   *astate // a forked thread's start state
	oldRegs []aval  // a join's old register values
}

// interCtx is the fixpoint state of one thread entry (context).
type interCtx struct {
	ia  *interAnalysis
	ctx int
	in  []astate // per-block in-state; bot = not reached in this context
}

// sizeStates finds the program's named registers and allocates the
// states of every context and round over them.
func (ia *interAnalysis) sizeStates() {
	named := regbit(isa.R0)
	for _, in := range ia.a.text {
		for _, r := range [...]isa.Reg{in.Rd, in.Rs1, in.Rs2} {
			if r.Valid() && r.IsInt() {
				named |= regbit(r)
			}
		}
	}
	for r := range ia.slot {
		ia.slot[r] = -1
		if named.has(isa.Reg(r)) {
			ia.slot[r] = int8(len(ia.named))
			ia.named = append(ia.named, isa.Reg(r))
		}
	}
	nb, n := len(ia.a.g.blocks), len(ia.named)
	sts := newStates(nb+3, n)
	ia.in, ia.st, ia.ns, ia.child = sts[:nb], &sts[nb], &sts[nb+1], &sts[nb+2]
	ia.child.setFresh(tidRange{0, ia.threads - 1})
	ia.oldRegs = make([]aval, n)
}

// idx returns register r's index in the abstract state, or -1 when the
// state does not track it (an FP register or NoReg).
func (ia *interAnalysis) idx(r isa.Reg) int {
	if !r.Valid() || r.IsFP() {
		return -1
	}
	return int(ia.slot[r])
}

// runCtx computes the per-block fixpoint for one entry. The in-states it
// returns live in ia.in, which the next runCtx call overwrites.
func (ia *interAnalysis) runCtx(ctxIdx, entryPC int, budget *int) *interCtx {
	g := ia.a.g
	ic := &interCtx{ia: ia, ctx: ctxIdx, in: ia.in}
	for i := range ic.in {
		ic.in[i].bot = true
	}
	eb := g.blockAt[entryPC]
	ic.in[eb].setFresh(tidRange{int64(ctxIdx), int64(ctxIdx)})
	updates := make([]int, len(g.blocks))
	inWork := make([]bool, len(g.blocks))
	work := []int{eb}
	inWork[eb] = true
	for len(work) > 0 {
		if *budget <= 0 {
			ia.gaveUp = true
			return ic
		}
		*budget--
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		if ic.in[bi].bot {
			continue
		}
		st := ia.st
		st.copyFrom(&ic.in[bi])
		for pc := g.blocks[bi].start; pc < g.blocks[bi].end; pc++ {
			ic.step(st, pc)
		}
		last := ia.a.text[g.blocks[bi].end-1]
		for _, e := range g.blocks[bi].succs {
			ns := ic.edgeState(ia.ns, st, e, last)
			if ns.bot {
				continue
			}
			if ic.join(&ic.in[e.to], ns, updates[e.to] >= widenAfter) {
				updates[e.to]++
				if !inWork[e.to] {
					work = append(work, e.to)
					inWork[e.to] = true
				}
			}
		}
	}
	return ic
}

// replay walks every reached block once with its final in-state, recording
// memory accesses, store address sets, branch decidability, and whether
// the queue-mapping state ever went unknown.
func (ia *interAnalysis) replay(ic *interCtx) {
	g := ia.a.g
	st := ia.st
	for bi, b := range g.blocks {
		if ic.in[bi].bot {
			continue
		}
		st.copyFrom(&ic.in[bi])
		killed := ia.killedIn[bi]
		for pc := b.start; pc < b.end; pc++ {
			in := ia.a.text[pc]
			if st.q.inInt == qUnknown || st.q.outInt == qUnknown {
				ia.qUncertain[0] = true
			}
			if st.q.inFP == qUnknown || st.q.outFP == qUnknown {
				ia.qUncertain[1] = true
			}
			switch in.Op {
			case isa.KILL:
				killed = true
			case isa.FFORK:
				killed = false
			}
			if in.Op.IsMem() {
				addr := addVals(ic.srcVal(st, in.Rs1), constVal(int64(in.Imm)))
				ia.accesses = append(ia.accesses, access{
					pc:       pc,
					ctx:      ic.ctx,
					store:    in.Op.IsStore(),
					prio:     in.Op == isa.SWP || in.Op == isa.FSWP,
					fp:       in.Op == isa.FLW || in.Op == isa.FSW || in.Op == isa.FSWP,
					addr:     addr,
					tid:      st.tid,
					solo:     ia.soloBlocks[bi],
					postKill: killed,
				})
				if in.Op.IsStore() {
					ia.storeAddrs = append(ia.storeAddrs, addr.foldTid(st.tid))
				}
			}
			if in.Op.IsConditionalBranch() {
				m := 4
				switch ic.branchOutcome(st, in) {
				case 0:
					m = 1
				case 1:
					m = 2
				}
				ia.brMask[pc] |= m
			}
			ic.step(st, pc)
		}
	}
}

// computeSolo marks blocks that can only execute while a single thread
// exists: single entry, and not reachable from any ffork continuation.
func (ia *interAnalysis) computeSolo() {
	g := ia.a.g
	ia.soloBlocks = make([]bool, len(g.blocks))
	if len(ia.a.cfg.entries()) != 1 {
		return // other entries run concurrently from cycle 0
	}
	if !g.hasFork {
		for i := range ia.soloBlocks {
			ia.soloBlocks[i] = true
		}
		return
	}
	reached := make([]bool, len(g.blocks))
	var stack []int
	for _, b := range g.blocks {
		for _, e := range b.succs {
			if e.kind == edgeFork && !reached[e.to] {
				reached[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.blocks[bi].succs {
			if !reached[e.to] {
				reached[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	for i := range ia.soloBlocks {
		ia.soloBlocks[i] = !reached[i]
	}
}

// computePostKill runs a forward must-dataflow: a block is "killed" on
// entry when every path to it executed a kill with no ffork afterwards.
func (ia *interAnalysis) computePostKill() {
	g := ia.a.g
	ia.killedIn = make([]bool, len(g.blocks))
	blockOut := func(bi int, in bool) bool {
		v := in
		for pc := g.blocks[bi].start; pc < g.blocks[bi].end; pc++ {
			switch ia.a.text[pc].Op {
			case isa.KILL:
				v = true
			case isa.FFORK:
				v = false
			}
		}
		return v
	}
	type pedge struct {
		from int
		kind edgeKind
	}
	preds := make([][]pedge, len(g.blocks))
	for bi, b := range g.blocks {
		for _, e := range b.succs {
			preds[e.to] = append(preds[e.to], pedge{bi, e.kind})
		}
	}
	// Optimistic start (true), lowered to fixpoint; entries start false.
	killed := make([]bool, len(g.blocks))
	for i := range killed {
		killed[i] = true
	}
	for _, bi := range g.entries {
		killed[bi] = false
	}
	for changed := true; changed; {
		changed = false
		for bi := range g.blocks {
			if !g.blocks[bi].reachable {
				continue
			}
			in := killed[bi]
			seeded := g.blocks[bi].seeded
			v := !seeded && len(preds[bi]) > 0
			for _, p := range preds[bi] {
				if !g.blocks[p.from].reachable {
					continue
				}
				if p.kind != edgeNormal || !blockOut(p.from, killed[p.from]) {
					v = false
					break
				}
			}
			if seeded {
				v = false
			}
			if v != in {
				killed[bi] = v
				changed = true
			}
		}
	}
	for bi := range killed {
		ia.killedIn[bi] = killed[bi] && g.blocks[bi].reachable
	}
}

// computeQueueCounts builds the per-context push/pop counters used by the
// queue happens-before rule. class 0 = integer ring, class 1 = FP ring.
func (ia *interAnalysis) computeQueueCounts() {
	entries := ia.a.cfg.entries()
	isPush := make([][2]bool, len(ia.a.text))
	isPop := make([][2]bool, len(ia.a.text))
	for _, u := range ia.a.queueWrites {
		isPush[u.pc][classOf(u.fp)] = true
	}
	for _, u := range ia.a.queueReads {
		isPop[u.pc][classOf(u.fp)] = true
	}
	for class := 0; class < 2; class++ {
		ia.maxPush[class] = make([][]int, len(entries))
		ia.minPop[class] = make([][]int, len(entries))
		for ci, e := range entries {
			ia.maxPush[class][ci] = ia.countFlow(e, isPush[:], class, true)
			ia.minPop[class][ci] = ia.countFlow(e, isPop[:], class, false)
		}
	}
}

// noteCmp records a constant comparison operand as a widening threshold
// (with its neighbours, so <, <=, and != guards all find a stop).
func (ia *interAnalysis) noteCmp(v aval) {
	if c, ok := v.isConst(); ok && c > aNegInf+1 && c < aPosInf-1 {
		ia.thresholds[c-1] = true
		ia.thresholds[c] = true
		ia.thresholds[c+1] = true
	}
}

// widenLo picks the widening target for a still-falling lower bound: the
// largest threshold at or below it, else -inf.
func (ia *interAnalysis) widenLo(l int64) int64 {
	best := aNegInf
	for t := range ia.thresholds {
		if t <= l && t > best {
			best = t
		}
	}
	return best
}

// widenHi picks the widening target for a still-rising upper bound: the
// smallest threshold at or above it, else +inf.
func (ia *interAnalysis) widenHi(h int64) int64 {
	best := aPosInf
	for t := range ia.thresholds {
		if t >= h && t < best {
			best = t
		}
	}
	return best
}

func classOf(fp bool) int {
	if fp {
		return 1
	}
	return 0
}

// countFlow computes, for every pc, the max (wantMax) or min number of
// marked instructions executed on paths from entry to just before pc.
// Unreached pcs get hbInf for min and 0 for max (they never execute, so
// any value is vacuously sound; the race check only consults executed pcs).
func (ia *interAnalysis) countFlow(entryPC int, marked [][2]bool, class int, wantMax bool) []int {
	g := ia.a.g
	blockCount := func(bi int) int {
		n := 0
		for pc := g.blocks[bi].start; pc < g.blocks[bi].end; pc++ {
			if marked[pc][class] {
				n++
			}
		}
		return n
	}
	unset := -1
	in := make([]int, len(g.blocks))
	for i := range in {
		in[i] = unset
	}
	eb := -1
	if entryPC >= 0 && entryPC < len(ia.a.text) {
		eb = g.blockAt[entryPC]
		in[eb] = 0
	}
	updates := make([]int, len(g.blocks))
	inWork := make([]bool, len(g.blocks))
	var work []int
	if eb >= 0 {
		work = append(work, eb)
		inWork[eb] = true
	}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		out := in[bi] + blockCount(bi)
		if out > hbInf {
			out = hbInf
		}
		for _, e := range g.blocks[bi].succs {
			contrib := out
			if e.kind == edgeFork {
				contrib = 0 // children start with empty FIFO history
			}
			if e.kind == edgeReturn {
				// The callee may have pushed/popped arbitrarily.
				if wantMax {
					contrib = hbInf
				} else {
					contrib = 0
				}
			}
			cur := in[e.to]
			next := cur
			switch {
			case cur == unset:
				next = contrib
			case wantMax && contrib > cur:
				next = contrib
			case !wantMax && contrib < cur:
				next = contrib
			}
			if next != cur {
				updates[e.to]++
				if wantMax && updates[e.to] > 4*len(g.blocks)+8 {
					next = hbInf // a push on a cycle: unbounded
				}
				in[e.to] = next
				if !inWork[e.to] {
					work = append(work, e.to)
					inWork[e.to] = true
				}
			}
		}
	}
	// Per-pc values from block in-values.
	out := make([]int, len(ia.a.text))
	for pc := range out {
		if wantMax {
			out[pc] = 0
		} else {
			out[pc] = hbInf
		}
	}
	for bi, b := range g.blocks {
		if in[bi] == unset {
			continue
		}
		n := in[bi]
		for pc := b.start; pc < b.end; pc++ {
			out[pc] = n
			if marked[pc][class] {
				n++
				if n > hbInf {
					n = hbInf
				}
			}
		}
	}
	return out
}

// hbQueue reports whether the queue ring orders access a (in thread t1)
// before access b (in thread t2 = t1+1 mod T).
func (ia *interAnalysis) hbQueue(a, b access, t1, t2 int64) bool {
	if (t1+1)%ia.threads != t2 {
		return false
	}
	for class := 0; class < 2; class++ {
		if ia.qUncertain[class] {
			continue
		}
		k := ia.maxPush[class][a.ctx][a.pc]
		if k >= hbInf {
			continue
		}
		if ia.minPop[class][b.ctx][b.pc] >= k+1 {
			return true
		}
	}
	return false
}

// loadVal abstracts a load from the given address set: thread-count words
// read as the configured thread count, folded read-only words read as
// their initial image value, everything else is unknown.
func (ia *interAnalysis) loadVal(addr aval) aval {
	if c, ok := addr.isConst(); ok {
		if ia.threadCountAddrs[c] {
			return constVal(ia.threads)
		}
		if ia.isFolded(c) {
			return constVal(ia.imageWord(c))
		}
	}
	return topVal()
}
