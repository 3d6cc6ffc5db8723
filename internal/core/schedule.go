package core

import (
	"math/bits"

	"hirata/internal/isa"
)

// schedulePhase is the S pipeline stage: for every functional-unit class,
// the instruction schedule unit picks, in thread-priority order, issued
// instructions waiting in standby stations (or issue latches) and assigns
// them to free functional units (§2.2).
//
// An instruction selected at cycle s occupies its unit for the issue
// latency and delivers its result at cycle s + result latency; that is the
// cycle at which a dependent instruction may pass decode, which reproduces
// the paper's 3-cycle dependent-issue distance for 2-cycle results.
//
// The phase consumes the classMask dirty set: the classDirty summary
// names the classes with issued work (clean classes are never touched),
// and the per-class scan visits only slots whose mask bit is set, in
// thread-priority order via the prioIdx rank table — the same slots, in
// the same order, as a walk of every slot in p.prio.
func (p *Processor) schedulePhase() {
	for dirty := p.classDirty; dirty != 0; dirty &= dirty - 1 {
		cls := isa.UnitClass(bits.TrailingZeros32(dirty))
		units := p.unitsByCls[cls]
		free := p.freeUnits[:0]
		for _, u := range units {
			if u.busyUntil < p.cycle {
				free = append(free, u)
			}
		}
		if len(free) == 0 {
			continue
		}
		// Candidates in priority order: at most one instruction per slot
		// per class can be waiting at the head of its standby FIFO. The
		// pending mask is iterated by repeatedly extracting the slot with
		// the best (lowest) priority rank — identical order to walking
		// p.prio, but proportional to the candidates, not the slot count.
		pending := p.classMask[cls]
		for pending != 0 && len(free) > 0 {
			slotID, bestRank := -1, 256
			for m := pending; m != 0; m &= m - 1 {
				id := bits.TrailingZeros64(m)
				if r := int(p.prioIdx[id]); r < bestRank {
					slotID, bestRank = id, r
				}
			}
			pending &^= slotBit(slotID)
			s := p.slots[slotID]
			var inf *inflight
			if p.cfg.StandbyStations {
				if len(s.standby[cls]) > 0 {
					inf = s.standby[cls][0]
				}
			} else if s.latch != nil && s.latch.class == cls {
				inf = s.latch
			}
			if inf == nil {
				continue
			}
			u := free[0]
			free = free[1:]
			p.selectInstr(u, inf)
			if p.cfg.StandbyStations {
				q := s.standby[cls]
				s.standby[cls] = q[:copy(q, q[1:])]
				if len(s.standby[cls]) == 0 {
					p.clearClassSlot(int(cls), slotBit(slotID))
				}
			} else {
				s.latch = nil
				p.clearClassSlot(int(cls), slotBit(slotID))
			}
			p.freeInflight(inf)
			p.issuedPending--
		}
	}
}

// selectInstr commits an issued instruction to a functional unit. The
// caller owns removing inf from its standby station/latch and returning it
// to the pool.
func (p *Processor) selectInstr(u *funcUnit, inf *inflight) {
	issueLat := inf.pre.issueLat
	resultLat := inf.pre.resultLat + uint64(inf.extraLat)

	u.busyUntil = p.cycle + issueLat - 1
	u.stat.Invocations++
	u.stat.BusyCycles += issueLat
	// The unit frees at busyUntil+1 (schedulePhase needs busyUntil < cycle);
	// a standby entry of this class may be waiting for exactly that cycle.
	p.pushEv(u.busyUntil + 1)

	ready := p.cycle + resultLat
	if inf.frame >= 0 {
		p.frames[inf.frame].setReady(inf.dest, ready)
	}
	// This selection may be the unblock a sentinel-deadline head stall
	// waits for: the standby drain, or the stamp that turns a pendingReady
	// scoreboard entry into a concrete cycle. Concrete-deadline stalls are
	// unaffected — a selection never moves a readyAt earlier.
	if sl := p.slots[inf.slot]; sl.stallUntil == pendingReady {
		sl.stallUntil = 0
	}
	stampQueueEntry(inf.push, ready)

	s := p.slots[inf.slot]
	s.outstanding++
	p.outstanding++
	if ready-p.cycle > p.compMask {
		panic("core: completion ring too small for result latency")
	}
	idx := ready & p.compMask
	p.completions[idx] = append(p.completions[idx], inf.slot)
	p.pushEv(ready)
	p.touch(ready)
	if p.observer != nil {
		p.observer.Select(p.cycle, inf.slot, inf.pc, inf.ins, u.class, u.index, ready)
		if p.compDetail != nil {
			p.compDetail[idx] = append(p.compDetail[idx], compDetail{
				slot: inf.slot, pc: inf.pc, ins: inf.ins, unit: u.class, unitIndex: u.index,
			})
		}
	}
}
