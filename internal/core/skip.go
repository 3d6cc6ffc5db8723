package core

import "math/bits"

// Quiescent-cycle skipping: when no slot is running a thread, nothing can
// decode, fetch or retire until a scheduled future event — a completion
// leaving the ring, a waiting frame's remote data arriving, an idle slot's
// rebind delay elapsing, a functional or fetch unit going free. Instead of
// spinning stepCycle through those cycles (the dominant cost of concurrent
// multithreading runs with 100+-cycle remote latency, §2.1.3), Run jumps
// p.cycle straight to the earliest such event. Results are cycle-exact:
// per-cycle stall statistics only accrue on running slots, so a stretch
// with runningSlots == 0 is observationally identical whether stepped or
// skipped, provided priority rotation is fast-forwarded the same number of
// boundaries. The same holds for the Observer stream: completions, binds,
// wakes and standby selections are all events the horizon stops at, so
// the only events a quiescent stretch can produce are the implicit
// rotations, which fastForwardRotation reports. Observed runs therefore
// skip exactly as bare runs do; Config.DisableCycleSkip is the stepping
// reference the skip differentials compare against.
//
// The jump is the degenerate case of the event-driven core's pending-event
// set (event.go): with the per-cycle dirty sets empty, the horizon is
// simply the earliest pending event, folded with the frame wake heap.

// advanceCycle moves the machine to the next simulated cycle, jumping over
// provably quiescent stretches unless Config.DisableCycleSkip is set. A
// HostProbe sees each jump through SkipJump, and on sampled steps the
// horizon machinery is charged to HostPhaseSkip — but only when it
// actually arms. A step that advances normally never reports the
// event-horizon phase, so phase profiles separate "cycle simulated" from
// "cycle jumped by event horizon".
func (p *Processor) advanceCycle() {
	next := p.cycle + 1
	if p.runningSlots > 0 || p.cfg.DisableCycleSkip {
		// Normal step: retire pending events up to the cycle being entered
		// (each push is popped exactly once, keeping the heap bounded).
		p.drainEv(next)
		p.cycle = next
		return
	}
	t := p.quiescentHorizon()
	if t > p.cfg.MaxCycles {
		// Jump to the limit so Run reports the runaway/deadlock error at
		// the same cycle, with the same statistics, as stepping would.
		t = p.cfg.MaxCycles
	}
	if t <= next {
		p.drainEv(next)
		p.cycle = next
		p.hostSkipDone()
		return
	}
	if p.hostProbe != nil {
		p.hostProbe.SkipJump(next-1, t)
	}
	p.fastForwardRotation(t)
	p.drainEv(t)
	p.cycle = t
	p.hostSkipDone()
}

// hostSkipDone closes the event-horizon phase of a sampled step on which
// the skip machinery armed (runningSlots == 0 and skipping enabled).
func (p *Processor) hostSkipDone() {
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseSkip)
		p.hostSampled = false
	}
}

// maxU returns the larger of two cycle numbers.
func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// minEvent folds one candidate event cycle into the horizon.
func minEvent(t, c uint64) uint64 {
	if c < t {
		return c
	}
	return t
}

// noEvent is the horizon sentinel: no resource reports a future event.
const noEvent = ^uint64(0)

// quiescentHorizon returns the earliest future cycle at which any pipeline
// activity can occur, given that no slot is running: the earliest bit of
// the near-event wheel, folded with the far-event heap top and the
// earliest frame-wake deadline (kept in its own heap for (when, id) wake
// ordering).
// Stale events — a killed slot's rebind, a re-busied unit — are at worst
// early, never late, costing one extra step. If the whole event set is
// empty the machine can never make progress (and finished() was false),
// i.e. a genuine deadlock: return MaxCycles so Run raises the same
// diagnostic the cycle-by-cycle loop would reach.
func (p *Processor) quiescentHorizon() uint64 {
	floor := p.cycle + 1
	p.drainEv(p.cycle)
	t := uint64(noEvent)
	if p.evNear != 0 {
		t = p.cycle + 1 + uint64(bits.TrailingZeros64(p.evNear))
	}
	if len(p.evFar) > 0 {
		t = minEvent(t, p.evFar[0])
	}
	if len(p.waitHeap) > 0 {
		t = minEvent(t, maxU(p.waitHeap[0].when, floor))
	}
	if t == noEvent {
		return p.cfg.MaxCycles
	}
	return t
}

// fastForwardRotation applies the implicit-rotation boundaries in the
// half-open interval (p.cycle, t) that a cycle-by-cycle walk to t would
// have crossed, leaving the priority order and the nextRotation counter
// exactly as stepping would. A boundary landing on t itself stays pending
// for rotatePriorities at cycle t. Boundaries are consumed even in
// explicit-rotation mode (matching rotatePriorities); rotations only apply
// in implicit mode. Each applied rotation is reported to the observer at
// its boundary cycle, as stepping would report it. Rotation is cyclic, so
// whole turns of the priority list change nothing a bare run can see: it
// applies only the last k mod len(prio) boundaries.
func (p *Processor) fastForwardRotation(t uint64) {
	if p.nextRotation >= t {
		return
	}
	interval := uint64(p.cfg.RotationInterval)
	k := (t-1-p.nextRotation)/interval + 1
	b := p.nextRotation
	p.nextRotation += k * interval
	if p.explicit || len(p.prio) < 2 {
		return
	}
	if p.observer == nil {
		turns := k - k%uint64(len(p.prio))
		b += turns * interval
		k -= turns
	}
	for ; k > 0; k-- {
		p.rotateOnce(b)
		b += interval
	}
}
