package core

// fetcherFor returns the fetch unit serving a slot: slots are distributed
// round-robin over the configured fetch units (one unit serves everyone in
// the base design; PrivateICache gives each slot its own).
func (p *Processor) fetcherFor(slotID int) *fetchUnit {
	return p.fetchers[slotID%len(p.fetchers)]
}

// advanceSlot advances one running slot's decode stages by one cycle:
// D1→D2 and buffer→D1. Each stage holds up to w (IssueWidth) instructions
// and advances once per cycle, so an instruction spends one cycle in each
// decode stage. D1 occupants are not copied anywhere: the first d1n buffer
// entries ARE stage D1, so entering D1 is a counter increment and only the
// D1→D2 move materializes the dinstr. Every buffer entry may enter D1 at
// the first decode after it arrived: deliveries run after decode, and only
// the access requirements a bind re-injects wait for arbD1. The move set is
// slot-local (own buffer, D1 counter, D2 window, and the slot's bit in the
// fetchable set), which is what lets decodeAndAdvance interleave it with
// issue on other slots without changing results.
func (p *Processor) advanceSlot(s *slot, w int) {
	n := len(s.arb) + s.qn
	if n == 0 || p.cycle < s.arbD1 {
		return // nothing to move in yet
	}
	for len(s.d2) < w && s.d1n > 0 {
		s.d2 = append(s.d2, p.popBuffer(s))
		s.d1n--
		n--
	}
	if d1 := min(w, n); d1 > s.d1n {
		s.d1n = d1
		p.refreshFetchable(s) // buffer space opened up
	}
}

// popBuffer removes the oldest queue-buffer entry and returns it as a
// decode-stage instruction, read from the access requirement, the program
// or the frame's trace.
func (p *Processor) popBuffer(s *slot) dinstr {
	if len(s.arb) > 0 {
		// Traps cannot occur during trace replay, so a re-injected access
		// requirement always indexes the program's metadata.
		req := s.arb[0]
		s.arb = s.arb[:copy(s.arb, s.arb[1:])]
		return dinstr{pc: req.PC, ins: req.Instr, pre: &p.pre[req.PC], fromARB: true, arbSeq: req.Seq}
	}
	pc := s.qpc
	s.qpc++
	s.qn--
	if p.traceMode {
		t := p.frames[s.frame].traceID
		k := p.traceIdx[t][pc]
		return dinstr{pc: pc, ins: p.prog[k], pre: &p.pre[k], addr: p.traces[t][pc].Addr}
	}
	return dinstr{pc: pc, ins: p.prog[pc], pre: &p.pre[pc]}
}

// fetchPhase advances every instruction fetch unit: finish in-flight cache
// accesses (delivering B = S×C×D instructions into the target slot's
// instruction queue buffer) and start the next access. Branch redirects
// preempt the round-robin fill order (§2.1.1). The phase's work set is
// busy units (a timed event), pending redirects, and the fetchable dirty
// set; with all three empty the phase is a no-op.
func (p *Processor) fetchPhase() {
	if p.busyFetchers == 0 && p.pendingRedirects == 0 && p.fetchable == 0 {
		return
	}
	for i, fu := range p.fetchers {
		if fu.busy {
			if p.cycle < fu.busyUntil {
				continue
			}
			p.deliver(fu)
			continue // the unit restarts next cycle
		}
		if len(fu.redirects) == 0 && p.fetchable&fu.slotMask == 0 {
			continue
		}
		p.startFetch(i, fu)
	}
}

// deliver completes an access: the delivered stream range joins the slot's
// queue buffer, readable by decode after the buffer-read stage, one cycle
// after delivery. Streams are immutable per frame, and any frame rebind or
// flush since the access began bumps fetchGen, which voids the delivery;
// so the range starts at qpc+qn.
func (p *Processor) deliver(fu *fetchUnit) {
	fu.busy = false
	p.busyFetchers--
	s := p.slots[fu.target]
	if fu.gen != s.fetchGen || s.state != slotRunning {
		return
	}
	s.qn += int(fu.pc1 - fu.pc0)
	p.refreshFetchable(s)
	p.touch(p.cycle + 1)
}

// startFetch picks the next request for an idle fetch unit.
func (p *Processor) startFetch(fuIndex int, fu *fetchUnit) {
	// Purge stale redirects, then serve the first eligible one.
	live := fu.redirects[:0]
	for _, r := range fu.redirects {
		if p.slots[r.slot].fetchGen == r.gen && p.slots[r.slot].state == slotRunning {
			live = append(live, r)
		}
	}
	p.pendingRedirects -= len(fu.redirects) - len(live)
	fu.redirects = live
	for i, r := range fu.redirects {
		if r.earliestStart <= p.cycle {
			fu.redirects = append(fu.redirects[:i], fu.redirects[i+1:]...)
			p.pendingRedirects--
			p.beginAccess(fu, r.slot)
			return
		}
	}
	// Round-robin fill among this unit's slots with buffer space (slot
	// ids congruent to the unit index modulo the fetch-unit count).
	n := p.cfg.ThreadSlots
	units := len(p.fetchers)
	for k := 1; k <= n; k++ {
		id := (fu.rr + k) % n
		if id%units != fuIndex {
			continue
		}
		if p.fetchable&slotBit(id) == 0 {
			continue // not in the dirty set: cannot want a fill
		}
		if p.wantsFetch(p.slots[id]) {
			fu.rr = id
			p.beginAccess(fu, id)
			return
		}
	}
}

// wantsFetch reports whether a slot needs its queue buffer filled.
func (p *Processor) wantsFetch(s *slot) bool {
	return s.state == slotRunning && !s.fetchDone && s.buffered() < s.bufCap &&
		p.cycle >= s.fetchHoldUntil
}

// fetching reports whether an instruction cache access for the slot's
// current stream is in flight.
func (p *Processor) fetching(s *slot) bool {
	fu := p.fetcherFor(s.id)
	return fu.busy && fu.target == s.id && fu.gen == s.fetchGen
}

// beginAccess starts one instruction cache access for a slot, recording the
// stream range it will deliver: from the end of the slot's buffer, qpc+qn.
func (p *Processor) beginAccess(fu *fetchUnit, slotID int) {
	s := p.slots[slotID]
	space := min(s.bufCap-s.buffered(), p.fetchMax)
	if space <= 0 || s.fetchDone {
		return
	}
	streamLen := p.streamLen(p.frames[s.frame])
	start := s.qpc + int64(s.qn)
	end := min(start+int64(space), streamLen)
	if end <= start {
		s.fetchDone = true
		p.refreshFetchable(s)
		return
	}
	lat := fu.icache.Access(start)
	fu.busy = true
	fu.busyUntil = p.cycle + uint64(lat) - 1
	fu.target = slotID
	fu.gen = s.fetchGen
	fu.pc0, fu.pc1 = start, end
	if end >= streamLen {
		s.fetchDone = true
	}
	p.busyFetchers++
	// Delivery happens on a later fetchPhase invocation (the unit must be
	// observed busy-and-due), never before cycle+1 even for 1-cycle caches.
	p.pushEv(maxU(fu.busyUntil, p.cycle+1))
	p.refreshFetchable(s)
	p.touch(fu.busyUntil)
}
