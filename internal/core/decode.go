package core

import (
	"fmt"

	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// issueCtx adapts the processor to exec.Context for one instruction leaving
// decode. It redirects queue-register-mapped register names to the ring
// FIFOs: the first read of the read-mapped register pops the incoming
// queue, writes to the write-mapped register fill the entry reserved in the
// outgoing queue.
type issueCtx struct {
	p *Processor
	s *slot
	f *contextFrame

	popIntDone bool
	popIntVal  int64
	popFPDone  bool
	popFPVal   float64
	push       *qentry
	memErr     error
}

func (c *issueCtx) ReadInt(r isa.Reg) int64 {
	if r.Valid() && r == c.s.qInInt {
		if !c.popIntDone {
			c.popIntVal = int64(c.p.inQueue(c.s.id, false).pop())
			c.popIntDone = true
		}
		return c.popIntVal
	}
	return c.f.regs.ReadInt(r)
}

func (c *issueCtx) WriteInt(r isa.Reg, v int64) {
	if r.Valid() && r == c.s.qOutInt {
		c.push.bits = uint64(v)
		return
	}
	c.f.regs.WriteInt(r, v)
}

func (c *issueCtx) ReadFP(r isa.Reg) float64 {
	if r.Valid() && r == c.s.qInFP {
		if !c.popFPDone {
			c.popFPVal = floatFromBits(c.p.inQueue(c.s.id, true).pop())
			c.popFPDone = true
		}
		return c.popFPVal
	}
	return c.f.regs.ReadFP(r)
}

func (c *issueCtx) WriteFP(r isa.Reg, v float64) {
	if r.Valid() && r == c.s.qOutFP {
		c.push.bits = floatBits(v)
		c.push.isFloat = true
		return
	}
	c.f.regs.WriteFP(r, v)
}

func (c *issueCtx) Load(addr int64) (uint64, error)  { return c.p.mem.Load(addr) }
func (c *issueCtx) Store(addr int64, v uint64) error { return c.p.mem.Store(addr, v) }
func (c *issueCtx) TID() int                         { return int(c.f.tid) }

// decodeAndAdvance runs every decode unit for one cycle in a single pass
// over the priority list: stage D2 issue (dependence checks via
// scoreboarding, queue-register full/empty interlocks, priority
// interlocks, branch resolution, issue into standby stations), then the
// slot's buffer→D1→D2 advance (advanceSlot). Running slots are the decode
// dirty set — only they hold decodable state or accrue stall statistics —
// so the pass returns immediately when none exist.
//
// Issuing from every slot before advancing any (two sweeps) would give the
// same result. A slot's own issue precedes its own advance, and advance
// mutates only slot-local state plus the slot's fetchable bit, none of
// which issue on another slot reads (cross-slot issue effects — kills,
// queue traffic, priority interlocks — consult slot states, queues, and
// scoreboards, never decode-stage contents). A slot killed by an
// earlier-priority slot after advancing is flushed wholesale, erasing the
// advance. The one iteration hazard is a change-priority instruction
// rotating p.prio mid-loop; the advanced bitmask plus the rotation-count
// check below guarantee every still-running slot advances exactly once
// regardless.
func (p *Processor) decodeAndAdvance() error {
	if p.runningSlots == 0 {
		return nil
	}
	p.issueBudget = p.cfg.MaxIssuePerCycle
	if p.issueBudget <= 0 {
		p.issueBudget = 1 << 30 // unbounded: simultaneous issue
	}
	w := p.cfg.IssueWidth
	rot := p.rotCount
	var advanced uint64
	for _, slotID := range p.prio {
		s := p.slots[slotID]
		if s.state != slotRunning {
			continue
		}
		if p.issueBudget > 0 {
			if err := p.issueFromSlot(s); err != nil {
				return err
			}
		}
		// Re-check the state: the slot may have halted or been flushed to
		// idle by its own issue, leaving nothing to advance.
		if s.state == slotRunning && advanced&(1<<uint(slotID)) == 0 {
			advanced |= 1 << uint(slotID)
			p.advanceSlot(s, w)
		}
	}
	if p.rotCount != rot {
		// A mid-loop rotation reordered p.prio under the range above, so
		// some running slot may have been skipped: mop up in index order.
		for _, s := range p.slots {
			if s.state == slotRunning && advanced&(1<<uint(s.id)) == 0 {
				p.advanceSlot(s, w)
			}
		}
	}
	return nil
}

// issueFromSlot issues up to IssueWidth instructions from the slot's D2
// window, in order. With IssueWidth == 1 this is the paper's base design;
// wider widths implement the hybrid superscalar thread slots of §3.3.
func (p *Processor) issueFromSlot(s *slot) error {
	if len(s.d2) == 0 {
		if s.fetchDone && len(s.arb)+s.qn == 0 && !p.fetching(s) {
			// The thread's next pc lies outside its stream, so nothing can
			// ever reach its decode unit again.
			stream := "program"
			if p.traceMode {
				stream = "trace"
			}
			return fmt.Errorf("core: slot %d: pc %d outside %s of %d instructions",
				s.id, s.qpc, stream, p.streamLen(p.frames[s.frame]))
		}
		p.stall(s, -1, StallEmpty)
		return nil
	}
	if p.cfg.IssueWidth == 1 {
		// The paper's base design: the window holds a single candidate, so
		// none of the wide path's intra-window hazard bookkeeping applies.
		// decodeAndAdvance guarantees issueBudget > 0 on entry.
		if s.stallUntil != 0 {
			// The head is scoreboard-blocked and nothing that could unblock
			// it has happened (see cacheHeadStall): re-deriving would give
			// the same head and reason, so report the stall without it.
			if p.cycle < s.stallUntil {
				p.stall(s, s.d2[0].pc, s.stallReason)
				return nil
			}
			s.stallUntil = 0
		}
		issued, reason, stop, err := p.tryIssue(s, &s.d2[0], true, nil, nil, false)
		if err != nil {
			return err
		}
		if issued {
			s.stallUntil = 0
			p.issueBudget--
			if stop {
				s.d2 = s.d2[:0]
			} else {
				s.d2 = s.d2[:copy(s.d2, s.d2[1:])]
			}
			return nil
		}
		if reason != StallNone {
			p.stall(s, s.d2[0].pc, reason)
		}
		return nil
	}
	var (
		pendingDests = p.pendScratch[:0]  // dests of earlier, unissued window entries
		pendingSrcs  = p.pendScratch2[:0] // sources of earlier, unissued window entries
		memBlocked   bool                 // an earlier unissued memory op exists
		ctrlBlocked  bool                 // an earlier unissued control op exists
		issuedIdx    = p.idxScratch[:0]
		firstStall   = StallNone
	)
	for i := 0; i < len(s.d2); i++ {
		di := &s.d2[i]
		if ctrlBlocked || p.issueBudget <= 0 {
			break
		}
		headClear := i == len(issuedIdx)
		issued, reason, stop, err := p.tryIssue(s, di, headClear, pendingDests, pendingSrcs, memBlocked)
		if err != nil {
			return err
		}
		if issued {
			issuedIdx = append(issuedIdx, i)
			p.issueBudget--
			if stop {
				// A branch or thread-control instruction redirected or
				// ended the stream; everything younger is already flushed.
				s.d2 = s.d2[:0]
				return nil
			}
			continue
		}
		if firstStall == StallNone && reason != StallNone {
			firstStall = reason
		}
		pendingDests = appendReg(pendingDests, di.pre.dest)
		pendingSrcs = append(pendingSrcs, di.pre.srcList()...)
		if di.pre.isMem {
			memBlocked = true
		}
		if di.pre.control && di.ins.Op != isa.NOP {
			ctrlBlocked = true
		}
		if p.cfg.IssueWidth == 1 {
			break
		}
	}
	if len(issuedIdx) > 0 {
		keep := s.d2[:0]
		k := 0
		for i, di := range s.d2 {
			if k < len(issuedIdx) && issuedIdx[k] == i {
				k++
				continue
			}
			keep = append(keep, di)
		}
		s.d2 = keep
	} else if firstStall != StallNone {
		p.stall(s, s.d2[0].pc, firstStall)
	}
	p.pendScratch = pendingDests[:0]
	p.pendScratch2 = pendingSrcs[:0]
	p.idxScratch = issuedIdx[:0]
	return nil
}

// stall tallies one stall cycle of the slot and reports it with pc, the
// head of the D2 window (-1 when the window is empty).
func (p *Processor) stall(s *slot, pc int64, reason StallReason) {
	p.stats.Slots[s.id].Stalls[reason]++
	if p.observer != nil {
		p.observer.Stall(p.cycle, s.id, pc, reason)
	}
}

// appendReg appends r to dst when it names a real register.
func appendReg(dst []isa.Reg, r isa.Reg) []isa.Reg {
	if r.Valid() {
		dst = append(dst, r)
	}
	return dst
}

// tryIssue attempts to issue one instruction out of the D2 window.
// headClear reports that every older window entry has issued, which is
// required for control instructions. stop=true means the instruction ended
// or redirected the instruction stream.
func (p *Processor) tryIssue(s *slot, di *dinstr, headClear bool, pendingDests, pendingSrcs []isa.Reg, memBlocked bool) (issued bool, reason StallReason, stop bool, err error) {
	in := di.ins
	pre := di.pre
	f := p.frames[s.frame]

	// Window-internal hazards (superscalar widths only).
	if p.cfg.IssueWidth > 1 {
		for _, r := range pre.srcList() {
			if regIn(pendingDests, r) {
				return false, StallData, false, nil
			}
		}
		if d := pre.dest; d.Valid() && (regIn(pendingDests, d) || regIn(pendingSrcs, d)) {
			return false, StallData, false, nil
		}
		if pre.isMem && memBlocked {
			return false, StallData, false, nil
		}
	}

	if pre.control {
		if !headClear {
			return false, StallData, false, nil
		}
		return p.issueControl(s, f, di)
	}

	// Priority-interlocked stores (§2.3.3) wait for the highest priority.
	if pre.needsPrio && p.highestActiveSlot() != s.id {
		return false, StallPriority, false, nil
	}

	// Structural: a free standby station (or the issue latch). The stall
	// lifts when an instruction schedule unit drains this slot's issued
	// work — a selectInstr for this slot, which clears the cache.
	cls := pre.class
	if p.cfg.StandbyStations {
		if len(s.standby[cls]) >= p.cfg.StandbyDepth {
			p.cacheHeadStall(s, pre, pendingReady, StallStandby)
			return false, StallStandby, false, nil
		}
	} else if s.latch != nil {
		p.cacheHeadStall(s, pre, pendingReady, StallStandby)
		return false, StallStandby, false, nil
	}

	// Source operands: queue-register reads need a filled, ready entry;
	// plain registers consult the scoreboard.
	if ok, r, until := p.sourcesReady(s, f, pre); !ok {
		if until != 0 {
			p.cacheHeadStall(s, pre, until, r)
		}
		return false, r, false, nil
	}

	// Destination: queue-register writes need capacity; plain registers
	// interlock on WAW via the scoreboard.
	dest := pre.dest
	destQueue := false
	if dest.Valid() {
		switch {
		case dest == s.qOutInt, dest == s.qOutFP:
			destQueue = true
			if p.outQueue(s.id, dest.IsFP()).full() {
				return false, StallQueueFull, false, nil
			}
		default:
			if at := f.readyAt[pre.destSB]; at > p.cycle {
				p.cacheHeadStall(s, pre, at, StallData)
				return false, StallData, false, nil
			}
		}
	}

	// Data-absence trap on loads of remote data (§2.1.3): in implicit
	// rotation mode with spare context frames, switch contexts instead of
	// stalling. Explicit-rotation mode suppresses context switches. In
	// trace-driven mode the effective address comes from the trace record.
	extraLat := 0
	if pre.isMem {
		base := in.Rs1
		haveAddr := p.traceMode || base != s.qInInt // queue-mapped bases cannot be pre-read
		if haveAddr {
			addr := di.addr
			if !p.traceMode {
				addr = f.regs.ReadInt(base) + int64(in.Imm)
			}
			if p.mem.IsRemote(addr) && !f.satisfied[addr] {
				if !p.explicit && p.concurrentOn() && !p.traceMode && pre.isLoad {
					p.trapDataAbsence(s, f, di, addr)
					return true, StallNone, true, nil
				}
				extraLat += p.mem.RemoteLatency()
				if f.satisfied == nil {
					f.satisfied = make(map[int64]bool)
				}
				f.satisfied[addr] = true
			}
			// The cache model sees only addresses a memory can hold; in a
			// program run, one outside p.mem fails in exec.Execute below.
			if addr >= 0 && (p.traceMode || addr < p.mem.Size()) {
				extraLat += p.dcache.Access(addr) - p.dcacheHitCycles()
			}
		}
	}

	// Issue: apply architectural effects now, timing flows through the
	// standby station and schedule unit. Trace-driven replay performs the
	// interlocks only; the recorded stream already fixed the values.
	var push *qentry
	if !p.traceMode {
		// The simulator is single-threaded and exec.Execute does not retain
		// its context, so one reusable issueCtx serves every instruction.
		ctx := &p.ictx
		*ctx = issueCtx{p: p, s: s, f: f}
		if destQueue {
			ctx.push = p.outQueue(s.id, dest.IsFP()).reserve()
		}
		out, eerr := exec.Execute(in, di.pc, ctx)
		if eerr != nil {
			return false, StallNone, false, fmt.Errorf("core: slot %d: %w", s.id, eerr)
		}
		if out.Effect != exec.EffectNone {
			return false, StallNone, false, fmt.Errorf("core: slot %d: unexpected effect from %s", s.id, in.Op)
		}
		push = ctx.push
	}

	inf := p.allocInflight()
	inf.ins = in
	inf.pre = pre
	inf.pc = di.pc
	inf.slot = s.id
	inf.frame = f.id
	inf.class = cls
	inf.extraLat = extraLat
	inf.push = push
	inf.dest = pre.destSB
	if destQueue {
		inf.dest = sbNone
	}
	f.setReady(inf.dest, pendingReady)
	if p.cfg.StandbyStations {
		s.standby[cls] = append(s.standby[cls], inf)
	} else {
		s.latch = inf
	}
	p.markIssued(s, int(cls))
	p.issuedPending++
	if di.fromARB {
		f.arb.Complete(di.arbSeq)
	}
	p.noteIssued(s, di)
	return true, StallNone, false, nil
}

// sourcesReady checks every source operand of an instruction. On a plain
// scoreboard miss the third result is the register's readyAt deadline (the
// pendingReady sentinel while the producer awaits selection), which feeds
// the head-stall cache; queue-register misses return 0 — a queue can fill
// on any cycle, so they are never cacheable.
func (p *Processor) sourcesReady(s *slot, f *contextFrame, pre *insMeta) (bool, StallReason, uint64) {
	needIntPop, needFPPop := false, false
	for i, r := range pre.srcList() {
		switch {
		case r == s.qInInt && s.qInInt != isa.NoReg:
			needIntPop = true
		case r == s.qInFP && s.qInFP != isa.NoReg:
			needFPPop = true
		default:
			if at := f.readyAt[pre.srcSB[i]]; at > p.cycle {
				return false, StallData, at
			}
		}
	}
	if needIntPop && p.inQueue(s.id, false).readyCount(p.cycle) < 1 {
		return false, StallQueueEmpty, 0
	}
	if needFPPop && p.inQueue(s.id, true).readyCount(p.cycle) < 1 {
		return false, StallQueueEmpty, 0
	}
	return true, StallNone, 0
}

// issueControl executes branches and the special thread-control
// instructions inside the decode unit. Trace replay takes the outcome from
// the opcode instead of executing: NewTraceDriven admits only NOP, HALT
// and branches here, and the trace already resolved every branch, so the
// stream simply continues with the next record.
func (p *Processor) issueControl(s *slot, f *contextFrame, di *dinstr) (bool, StallReason, bool, error) {
	in := di.ins

	// Priority interlocks: change-priority (explicit mode) and kill run
	// only on the highest-priority logical processor (§2.2, §2.3.3).
	switch in.Op {
	case isa.KILL:
		if p.highestActiveSlot() != s.id {
			return false, StallPriority, false, nil
		}
	case isa.CHGPRI:
		if p.explicit && p.highestActiveSlot() != s.id {
			return false, StallPriority, false, nil
		}
	}

	// Branch conditions and jump targets read registers in the decode
	// unit; they must be ready.
	if ok, r, _ := p.sourcesReady(s, f, di.pre); !ok {
		return false, r, false, nil
	}

	var out exec.Outcome
	switch {
	case !p.traceMode:
		ctx := &p.ictx
		*ctx = issueCtx{p: p, s: s, f: f}
		var err error
		if out, err = exec.Execute(in, di.pc, ctx); err != nil {
			return false, StallNone, false, fmt.Errorf("core: slot %d: %w", s.id, err)
		}
	case in.Op == isa.HALT:
		out.Effect = exec.EffectHalt
	case in.Op.IsBranch():
		out = exec.Outcome{Effect: exec.EffectBranch, Taken: true, Target: di.pc + 1}
	}
	if di.fromARB {
		f.arb.Complete(di.arbSeq)
	}
	p.noteIssued(s, di)

	switch out.Effect {
	case exec.EffectNone:
		// NOP; also TID and JAL-style link writes already applied. Results
		// computed in the decode unit are usable the next cycle.
		f.setReady(di.pre.destSB, p.cycle+1)
		return true, StallNone, false, nil

	case exec.EffectBranch:
		p.stats.Slots[s.id].Branches++
		f.setReady(di.pre.destSB, p.cycle+1) // jal link register
		next := di.pc + 1
		if out.Taken {
			next = out.Target
		}
		p.redirect(s, next)
		return true, StallNone, true, nil

	case exec.EffectHalt:
		p.setFrameState(f, frameDone)
		s.flushPipeline()
		s.unmapQueues()
		if p.observer != nil {
			p.observer.ThreadEnd(p.cycle, s.id, f.id, false)
		}
		p.setSlotState(s, slotIdle)
		s.frame = -1
		p.touch(p.cycle)
		return true, StallNone, true, nil

	case exec.EffectFork:
		p.fork(s, di.pc)
		return true, StallNone, false, nil

	case exec.EffectKill:
		p.kill(s)
		return true, StallNone, false, nil

	case exec.EffectChangePriority:
		if p.explicit {
			p.rotateOnce(p.cycle)
		}
		return true, StallNone, false, nil

	case exec.EffectQueueEnable:
		s.qInInt, s.qOutInt = in.Rs1, in.Rs2
		return true, StallNone, false, nil

	case exec.EffectQueueEnableFP:
		s.qInFP, s.qOutFP = in.Rs1, in.Rs2
		return true, StallNone, false, nil

	case exec.EffectQueueDisable:
		s.unmapQueues()
		return true, StallNone, false, nil

	case exec.EffectSetMode:
		p.explicit = out.Mode != 0
		return true, StallNone, false, nil
	}
	return false, StallNone, false, fmt.Errorf("core: unhandled effect %d for %s", out.Effect, in.Op)
}

// redirect restarts the slot's instruction stream at pc after a branch.
// The refetch becomes eligible next cycle; the resulting bubble reproduces
// the paper's 5-cycle branch delay on an otherwise idle fetch unit.
func (p *Processor) redirect(s *slot, pc int64) {
	s.flushPipeline()
	s.qpc = pc
	s.fetchDone = pc >= p.streamLen(p.frames[s.frame]) || pc < 0
	s.fetchHoldUntil = p.cycle + 1
	p.refreshFetchable(s)
	fu := p.fetcherFor(s.id)
	fu.redirects = append(fu.redirects, redirectReq{
		slot:          s.id,
		gen:           s.fetchGen,
		earliestStart: p.cycle + 1,
	})
	p.pendingRedirects++
	if p.observer != nil {
		p.observer.Redirect(p.cycle, s.id, pc)
	}
}

// trapDataAbsence switches the thread out on a remote-memory load.
func (p *Processor) trapDataAbsence(s *slot, f *contextFrame, di *dinstr, addr int64) {
	f.arbSeq++
	f.arb.Add(mem.AccessRequirement{Instr: di.ins, PC: di.pc, Seq: f.arbSeq})
	f.pc = di.pc + 1
	p.setFrameState(f, frameWaiting)
	f.waitUntil = p.cycle + uint64(p.mem.RemoteLatency())
	p.pushWait(f.waitUntil, f.id)
	if f.satisfied == nil {
		f.satisfied = make(map[int64]bool)
	}
	f.satisfied[addr] = true
	s.flushPipeline()
	p.setSlotState(s, slotDraining)
	p.stats.Switches++
	if p.observer != nil {
		p.observer.Trap(p.cycle, s.id, f.id, addr)
	}
	// The wait itself is only charged when the frame actually wakes
	// (wakeFrames); a kill can cut it short.
	p.touch(p.cycle)
}

// fork implements fast-fork (§2.3.1): every idle thread slot starts a
// thread at the instruction after the fork, with its logical processor
// identifier as thread id.
func (p *Processor) fork(forker *slot, forkPC int64) {
	for _, s := range p.slots {
		if s == forker || s.state != slotIdle {
			continue
		}
		f := p.frames[s.id]
		if f.state != frameFree && f.state != frameDone {
			continue
		}
		f.reset()
		f.tid = int64(s.id)
		f.pc = forkPC + 1
		p.bindFrame(s, f)
		p.stats.Forks++
	}
}

// kill implements the kill instruction: stop all other running threads.
func (p *Processor) kill(killer *slot) {
	for _, s := range p.slots {
		if s == killer || s.frame < 0 {
			continue
		}
		p.setFrameState(p.frames[s.frame], frameDone)
		s.flushPipeline()
		p.clearIssuedSlot(s)
		s.unmapQueues()
		if p.observer != nil {
			p.observer.ThreadEnd(p.cycle, s.id, s.frame, true)
		}
		p.setSlotState(s, slotIdle)
		s.frame = -1
		p.stats.Kills++
	}
	for _, fid := range p.readyQ {
		if p.frames[fid].state == frameReady {
			p.setFrameState(p.frames[fid], frameDone)
			p.stats.Kills++
		}
	}
	p.readyQ = p.readyQ[:0]
	for _, f := range p.frames {
		if f.state == frameWaiting {
			// The frame's wait-heap entry goes stale; wakeFrames skips it.
			p.setFrameState(f, frameDone)
			p.stats.Kills++
		}
	}
	p.clearQueues()
	p.touch(p.cycle)
}

// noteIssued updates per-slot and global instruction counts.
func (p *Processor) noteIssued(s *slot, di *dinstr) {
	p.stats.Slots[s.id].Issued++
	p.stats.Instructions++
	p.touch(p.cycle)
	if p.observer != nil {
		p.observer.Issue(p.cycle, s.id, di.pc, di.ins)
	}
}

// dcacheHitCycles returns the baseline data-cache access time already
// folded into the load/store latencies of Table 1.
func (p *Processor) dcacheHitCycles() int { return mem.CacheAccessCycles }

func regIn(list []isa.Reg, r isa.Reg) bool {
	for _, x := range list {
		if x == r {
			return true
		}
	}
	return false
}
