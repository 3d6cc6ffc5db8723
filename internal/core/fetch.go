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
// decode stage. D1 occupants are not copied anywhere: the first d1n ring
// entries ARE stage D1, so entering D1 is a counter increment and only the
// D1→D2 move materializes the dinstr. The move set is slot-local (own
// buffer, D1 counter, D2 window, and the slot's bit in the fetchable set),
// which is what lets decodeAndAdvance interleave it with issue on other
// slots without changing results.
func (p *Processor) advanceSlot(s *slot, w int) {
	if s.buf.len() == 0 {
		return // D1 and the buffer are both empty: nothing to move in
	}
	if len(s.d2) >= w && s.d1n >= w {
		return // no space anywhere
	}
	for len(s.d2) < w && s.d1n > 0 {
		s.d2 = append(s.d2, s.buf.front().d)
		s.buf.popFront()
		s.d1n--
	}
	popped := false
	for s.d1n < w && s.buf.len() > s.d1n && s.buf.at(s.d1n).minD1 <= p.cycle {
		s.d1n++
		popped = true
	}
	if popped {
		p.refreshFetchable(s) // buffer space opened up
	}
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

// deliver completes an access: instructions become readable by decode after
// the buffer-read stage, one cycle after delivery. The instructions are
// materialized here, straight into the slot's queue buffer — beginAccess
// only recorded the stream range. That is result-identical to capturing
// them at access start: streams are immutable per frame, and any frame
// rebind or flush in between bumps fetchGen, which voids the delivery.
func (p *Processor) deliver(fu *fetchUnit) {
	fu.busy = false
	p.busyFetchers--
	s := p.slots[fu.target]
	if fu.gen != s.fetchGen || s.state != slotRunning {
		return
	}
	f := p.frames[s.frame]
	minD1 := p.cycle + 1
	if p.traceMode && f.traceID >= 0 {
		recs, idx := p.traces[f.traceID], p.traceIdx[f.traceID]
		for pc := fu.pc0; pc < fu.pc1; pc++ {
			k := idx[pc]
			s.buf.push(bufEntry{d: dinstr{pc: pc, ins: p.prog[k], pre: &p.pre[k], addr: recs[pc].Addr}, minD1: minD1})
		}
	} else {
		n := int(fu.pc1 - fu.pc0)
		s.buf.reserve(n)
		for i := 0; i < n; i++ {
			pc := fu.pc0 + int64(i)
			*s.buf.at(s.buf.n + i) = bufEntry{d: dinstr{pc: pc, ins: p.prog[pc], pre: &p.pre[pc]}, minD1: minD1}
		}
		s.buf.n += n
	}
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
	return s.state == slotRunning && !s.fetchDone && s.buf.len()-s.d1n < s.bufCap &&
		p.cycle >= s.fetchHoldUntil
}

// fetching reports whether an instruction cache access for the slot's
// current stream is in flight.
func (p *Processor) fetching(s *slot) bool {
	fu := p.fetcherFor(s.id)
	return fu.busy && fu.target == s.id && fu.gen == s.fetchGen
}

// beginAccess starts one instruction cache access for a slot, capturing the
// instructions it will deliver.
func (p *Processor) beginAccess(fu *fetchUnit, slotID int) {
	s := p.slots[slotID]
	space := s.bufCap - (s.buf.len() - s.d1n)
	if space > p.fetchMax {
		space = p.fetchMax
	}
	if space <= 0 || s.fetchDone {
		return
	}
	f := p.frames[s.frame]
	streamLen := p.streamLen(f)
	end := s.fetchPC + int64(space)
	if end > streamLen {
		end = streamLen
	}
	if end <= s.fetchPC {
		s.fetchDone = true
		p.refreshFetchable(s)
		return
	}
	lat := fu.icache.Access(s.fetchPC)
	fu.busy = true
	fu.busyUntil = p.cycle + uint64(lat) - 1
	fu.target = slotID
	fu.gen = s.fetchGen
	fu.pc0, fu.pc1 = s.fetchPC, end
	s.fetchPC = end
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
