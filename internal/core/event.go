package core

// The event-driven core: instead of scanning every slot, functional unit,
// queue and fetch unit each cycle, the cycle loop consumes explicit work
// sets —
//
//   - a pending-event set (evNear/evFar) of future cycles at which *timed*
//     state can change: completions leaving the ring, functional units
//     going free, fetch deliveries, context-switch rebind delays, and (via
//     the separate waitHeap, which needs (when, id) ordering) remote-data
//     arrivals;
//   - per-cycle dirty sets for untimed state: classMask (slots holding an
//     issued-but-unselected instruction, per unit class) and fetchable
//     (slots whose instruction queue buffer wants a fill), maintained at
//     the mutation sites;
//   - the live counters (runningSlots, drainingSlots, readyQ length) that
//     gate whole phases off when they provably have no work.
//
// Every event push is conservative: pushing an event that turns out stale
// (the slot was killed, the unit re-busied) costs at most one extra normal
// step; *missing* an event would change results, so each push site is the
// mutation that creates the future work. The quiescent jump of skip.go is
// the degenerate case of this design — when the per-cycle dirty sets are
// empty (runningSlots == 0), the next pending event IS the horizon.
// TestEventHorizonNeverLate checks that horizon against a structural scan
// of the machine state.
//
// The core replaced a scan-everything cycle loop. That loop's results over
// the differential workload matrix are recorded in the repository's
// testdata/legacy_core.golden.json, and TestEventCoreDifferential* replay
// the matrix against them.

// pushEv schedules a future cycle at which timed state changes.
//
// The pending-event set is split by distance. Events within the next 64
// cycles — the overwhelming majority: unit frees, result completions,
// fetch deliveries, rebind delays — land in evNear, a timing-wheel bitmap
// where bit k means "event at cycle+1+k"; push is one OR, and advancing
// the cycle is one shift. Only far events (remote-memory completions,
// long waits) pay for the evFar min-heap.
func (p *Processor) pushEv(when uint64) {
	d := when - p.cycle
	if when <= p.cycle {
		d = 1 // clamp stale pushes to the horizon floor
	}
	if d <= 64 {
		p.evNear |= 1 << (d - 1)
		return
	}
	h := append(p.evFar, when)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	p.evFar = h
}

// popFar removes the earliest far event.
func (p *Processor) popFar() uint64 {
	h := p.evFar
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && h[l] < h[small] {
			small = l
		}
		if r < n && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	p.evFar = h
	return top
}

// drainEv slides the near-event window forward to `limit` (the cycle the
// machine is about to occupy — p.cycle has not been updated yet) and
// discards events at or before it: those cycles are being simulated or
// jumped over, so their events are consumed. Called once per advanceCycle,
// it keeps the event set bounded: every push is dropped exactly once, here
// or by the horizon peek.
func (p *Processor) drainEv(limit uint64) {
	if d := limit - p.cycle; d >= 64 {
		p.evNear = 0
	} else {
		p.evNear >>= d
	}
	for len(p.evFar) > 0 && p.evFar[0] <= limit {
		p.popFar()
	}
}

// slotBit is the dirty-set bit of a slot (ThreadSlots ≤ 64).
func slotBit(id int) uint64 { return 1 << uint(id) }

// markIssued records slot s holding an issued-but-unselected instruction of
// class cls, making the slot visible to schedulePhase's per-class scan.
// classDirty summarizes which classes have any pending work, so the
// schedule phase skips clean classes without loading their masks.
func (p *Processor) markIssued(s *slot, cls int) {
	p.classMask[cls] |= slotBit(s.id)
	p.classDirty |= 1 << uint(cls)
}

// clearClassSlot removes a slot from one class's dirty mask, folding the
// emptiness back into the classDirty summary.
func (p *Processor) clearClassSlot(cls int, bit uint64) {
	p.classMask[cls] &^= bit
	if p.classMask[cls] == 0 {
		p.classDirty &^= 1 << uint(cls)
	}
}

// clearIssuedSlot drops a slot's standby/latch contents (thread killed),
// returning the in-flight entries to the pool and keeping the
// issuedPending counter and per-class dirty masks exact.
func (p *Processor) clearIssuedSlot(s *slot) {
	bit := slotBit(s.id)
	for cls := range s.standby {
		for _, inf := range s.standby[cls] {
			p.freeInflight(inf)
			p.issuedPending--
		}
		s.standby[cls] = s.standby[cls][:0]
		p.clearClassSlot(cls, bit)
	}
	if s.latch != nil {
		p.clearClassSlot(int(s.latch.class), bit)
		p.freeInflight(s.latch)
		s.latch = nil
		p.issuedPending--
	}
}

// refreshFetchable recomputes a slot's bit in the fetchable dirty set:
// running, stream not exhausted, buffer space available. The branch-delay
// hold (fetchHoldUntil) is deliberately not folded in — it is a short
// timed condition checked at the scan, so a held slot costs one filtered
// visit per cycle instead of an event push per redirect.
func (p *Processor) refreshFetchable(s *slot) {
	if s.state == slotRunning && !s.fetchDone && s.buf.len()-s.d1n < s.bufCap {
		p.fetchable |= slotBit(s.id)
	} else {
		p.fetchable &^= slotBit(s.id)
	}
}

// cacheHeadStall records that a slot's D2 head is blocked — on the register
// scoreboard until `until`, or on a full standby station/latch (reason
// StallStandby, until = pendingReady). While the cache holds, issueFromSlot
// tallies and reports the reason without re-deriving it, observed or not.
// Validity argument: the head dinstr cannot change while the slot is
// stalled (any flush clears the cache via flushPipeline), this slot's own
// scoreboard/standby/queue mappings only mutate when it issues, a plain
// register's readyAt never moves earlier (WAW interlock), and the one event
// that can lift a sentinel-deadline stall — selectInstr draining this
// slot's standby station or stamping its pending write — clears the cache
// explicitly. A concrete deadline needs no invalidation at all: selections
// of other registers cannot move it. Width 1 only: wide windows re-derive
// intra-window hazards each cycle, and the priority interlock (needsPrio)
// depends on rotation, so those never cache.
func (p *Processor) cacheHeadStall(s *slot, pre *insMeta, until uint64, reason StallReason) {
	if p.cfg.IssueWidth == 1 && !pre.needsPrio {
		s.stallUntil = until
		s.stallReason = reason
	}
}

// allocInflight takes an in-flight entry from the pool. Entries cycle
// issue→select→pool, so steady-state stepping allocates nothing
// (TestStepCycleNoObserverAllocFree).
func (p *Processor) allocInflight() *inflight {
	if n := len(p.infPool); n > 0 {
		inf := p.infPool[n-1]
		p.infPool = p.infPool[:n-1]
		return inf
	}
	return new(inflight)
}

// freeInflight zeroes an entry (dropping its pre/push pointers) and
// returns it to the pool.
func (p *Processor) freeInflight(inf *inflight) {
	*inf = inflight{}
	p.infPool = append(p.infPool, inf)
}

// insRing is a slot's instruction queue buffer as a growable power-of-two
// ring. The previous []bufEntry pop-front (`buf[:copy(buf, buf[1:])]`)
// moved every remaining pointer-bearing entry one position per drained
// instruction — typedslicecopy plus write barriers were among the top
// profile entries. The ring pops by bumping an index.
type insRing struct {
	e    []bufEntry
	head int
	n    int
}

func (r *insRing) len() int { return r.n }

// reset empties the ring. Stale entries are not zeroed: the only pointer a
// bufEntry holds (dinstr.pre) targets the processor-lifetime predecode
// arrays, so a dead entry retains nothing the live processor does not.
func (r *insRing) reset() {
	r.head, r.n = 0, 0
}

// front returns the oldest entry. Callers check len() first.
func (r *insRing) front() *bufEntry { return &r.e[r.head] }

// at returns the i-th oldest entry, 0 <= i < len().
func (r *insRing) at(i int) *bufEntry { return &r.e[(r.head+i)&(len(r.e)-1)] }

// popFront drops the oldest entry without zeroing it (see reset).
func (r *insRing) popFront() {
	r.head = (r.head + 1) & (len(r.e) - 1)
	r.n--
}

// reserve grows the storage (doubling, re-linearized) until n more entries
// fit, letting bulk producers fill slots via at() without per-entry grow
// checks.
func (r *insRing) reserve(n int) {
	need := r.n + n
	if need <= len(r.e) {
		return
	}
	sz := maxInt(2*len(r.e), 8)
	for sz < need {
		sz *= 2
	}
	grown := make([]bufEntry, sz)
	for i := 0; i < r.n; i++ {
		grown[i] = r.e[(r.head+i)&(len(r.e)-1)]
	}
	r.e = grown
	r.head = 0
}

// push appends an entry, growing the storage (doubling, re-linearized) on
// demand so small runs never pay for the configured maximum capacity.
func (r *insRing) push(e bufEntry) {
	if r.n == len(r.e) {
		grown := make([]bufEntry, maxInt(2*len(r.e), 8))
		for i := 0; i < r.n; i++ {
			grown[i] = r.e[(r.head+i)&(len(r.e)-1)]
		}
		r.e = grown
		r.head = 0
	}
	r.e[(r.head+r.n)&(len(r.e)-1)] = e
	r.n++
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
