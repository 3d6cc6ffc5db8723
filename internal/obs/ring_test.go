package obs

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hirata/internal/core"
	"hirata/internal/isa"
)

// refRing is the ring the chunked record ring replaced: one append-grown
// []Event, overwritten in place once full. It is the reference the record
// ring must reproduce event for event.
type refRing struct {
	ring     []Event
	head     int
	full     bool
	capacity int
	dropped  uint64
}

func (r *refRing) push(e Event) {
	if !r.full && len(r.ring) < r.capacity {
		r.ring = append(r.ring, e)
		if len(r.ring) == r.capacity {
			r.full = true
		}
		return
	}
	r.full = true
	r.ring[r.head] = e
	r.head = (r.head + 1) % len(r.ring)
	r.dropped++
}

func (r *refRing) events() []Event {
	out := make([]Event, 0, len(r.ring))
	if r.full {
		out = append(out, r.ring[r.head:]...)
		return append(out, r.ring[:r.head]...)
	}
	return append(out, r.ring...)
}

func pick[T any](rng *rand.Rand, vs ...T) T { return vs[rng.Intn(len(vs))] }

// edgeStream feeds c one seeded observer call per step, with values at the
// edges of what the core emits, and pushes the Event each call must record
// to ref.
type edgeStream struct {
	rng   *rand.Rand
	cycle uint64
}

func (s *edgeStream) step(c *Collector, ref *refRing) {
	rng := s.rng
	s.cycle += uint64(rng.Intn(3))
	cycle := s.cycle
	slot := pick(rng, -1, 0, 1, 62, 63, rng.Intn(64))
	frame := pick(rng, 0, 1, 32767, rng.Intn(32768))
	pc := pick[int64](rng, -1, 0, 1, int64(rng.Intn(1<<20)), math.MaxInt64, math.MinInt64)
	aux := pick[int64](rng, -1, 0, 7, -1<<40, 1<<40, math.MaxInt64, math.MinInt64)
	ins := isa.Instruction{Op: isa.Opcode(rng.Intn(isa.NumOpcodes)), Rd: isa.Reg(rng.Intn(256)),
		Rs1: isa.Reg(rng.Intn(256)), Rs2: isa.Reg(rng.Intn(256)), Imm: int32(rng.Uint32())}
	unit := isa.UnitClass(rng.Intn(isa.NumUnitClasses + 1))
	idx := rng.Intn(8)
	switch Kind(rng.Intn(int(KindThreadEnd) + 1)) {
	case KindIssue:
		c.Issue(cycle, slot, pc, ins)
		ref.push(Event{Kind: KindIssue, Cycle: cycle, Slot: int16(slot), PC: pc, Ins: ins})
	case KindSelect:
		readyAt := cycle + pick[uint64](rng, 0, 1, 1<<31-1, 1<<31, uint64(rng.Intn(1<<31)))
		c.Select(cycle, slot, pc, ins, unit, idx, readyAt)
		ref.push(Event{Kind: KindSelect, Cycle: cycle, Slot: int16(slot), PC: pc, Ins: ins,
			Unit: unit, UnitIndex: uint8(idx), ReadyAt: readyAt})
	case KindComplete:
		c.Complete(cycle, slot, pc, ins, unit, idx)
		ref.push(Event{Kind: KindComplete, Cycle: cycle, Slot: int16(slot), PC: pc, Ins: ins,
			Unit: unit, UnitIndex: uint8(idx)})
	case KindStall:
		reason := core.StallReason(rng.Intn(core.NumStallReasons))
		c.Stall(cycle, slot, pc, reason)
		ref.push(Event{Kind: KindStall, Cycle: cycle, Slot: int16(slot), PC: pc, Reason: reason})
	case KindRedirect:
		c.Redirect(cycle, slot, pc)
		ref.push(Event{Kind: KindRedirect, Cycle: cycle, Slot: int16(slot), PC: pc})
	case KindBind:
		c.Bind(cycle, slot, frame, aux)
		ref.push(Event{Kind: KindBind, Cycle: cycle, Slot: int16(slot), Frame: int16(frame), Aux: aux, PC: -1})
	case KindTrap:
		c.Trap(cycle, slot, frame, aux)
		ref.push(Event{Kind: KindTrap, Cycle: cycle, Slot: int16(slot), Frame: int16(frame), Aux: aux, PC: -1})
	case KindRotate:
		var prio []int
		if aux != -1 {
			prio = []int{int(aux), 0}
		}
		c.Rotate(cycle, prio)
		ref.push(Event{Kind: KindRotate, Cycle: cycle, Slot: -1, Aux: aux, PC: -1})
	case KindThreadEnd:
		killed := rng.Intn(2) == 0
		c.ThreadEnd(cycle, slot, frame, killed)
		ref.push(Event{Kind: KindThreadEnd, Cycle: cycle, Slot: int16(slot), Frame: int16(frame), Killed: killed, PC: -1})
	}
}

// TestEventRingMatchesReference feeds the collector's record ring and the
// reference slice ring the same seeded stream, through capacities around
// the chunk size, and requires identical Events and Dropped while the ring
// fills, reaches each chunk boundary and wraps.
func TestEventRingMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 7, ringChunk - 1, ringChunk, ringChunk + 1, 3*ringChunk + 5} {
		c := NewCollector(core.Config{ThreadSlots: 64}, Options{RingCapacity: capacity, KeepStallEvents: true})
		ref := &refRing{capacity: capacity}
		s := &edgeStream{rng: rand.New(rand.NewSource(int64(capacity))), cycle: 1 << 40}
		check := map[int]bool{}
		for _, n := range []int{1, ringChunk - 1, ringChunk, ringChunk + 1, 2 * ringChunk,
			capacity - 1, capacity, capacity + 1, 2*capacity - 1, 2 * capacity, 2*capacity + 1, 3 * capacity} {
			check[n] = true
		}
		for n := 1; n <= 3*capacity; n++ {
			s.step(c, ref)
			if capacity > 7 && !check[n] {
				continue
			}
			got, want := c.Events(), ref.events()
			if len(got) != len(want) {
				t.Fatalf("capacity %d after %d events: ring holds %d, reference %d", capacity, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("capacity %d after %d events: event %d\n got %+v\nwant %+v", capacity, n, i, got[i], want[i])
				}
			}
			if got, want := c.Dropped(), ref.dropped; got != want {
				t.Fatalf("capacity %d after %d events: Dropped() = %d, reference %d", capacity, n, got, want)
			}
		}
	}
}

// feedIssueSelectComplete feeds c n Issue/Select/Complete events over
// pcs 0..63 on two slots and returns the bytes allocated per event.
func feedIssueSelectComplete(c *Collector, n int) float64 {
	ins := isa.Instruction{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R1, Imm: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cycle, slot, pc := uint64(i/3), i%2, int64(i%64)
		switch i % 3 {
		case 0:
			c.Issue(cycle, slot, pc, ins)
		case 1:
			c.Select(cycle, slot, pc, ins, isa.UnitIntALU, 0, cycle+1)
		case 2:
			c.Complete(cycle, slot, pc, ins, isa.UnitIntALU, 0)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestCollectorRingBytesPerEvent bounds what recording costs in the heap:
// a Collector with the default ring stores 2^20 events in 32 bytes each,
// with nothing copied as the ring grows.
func TestCollectorRingBytesPerEvent(t *testing.T) {
	const n = 1 << 20
	c := NewCollector(core.Config{ThreadSlots: 2}, Options{RingCapacity: DefaultRingCapacity})
	per := feedIssueSelectComplete(c, n)
	if c.Dropped() != 0 {
		t.Fatalf("default ring dropped %d of %d events", c.Dropped(), n)
	}
	if got := len(c.Events()); got != n {
		t.Fatalf("ring holds %d events, want %d", got, n)
	}
	t.Logf("recording allocated %.2f bytes per event", per)
	if per > 33 {
		t.Errorf("recording allocated %.1f bytes per event, want at most 33", per)
	}
}

// TestRinglessCollectorAllocFree: a Collector without a ring allocates
// nothing per event once its profile table covers the pcs it sees.
func TestRinglessCollectorAllocFree(t *testing.T) {
	c := NewCollector(core.Config{ThreadSlots: 2}, Options{})
	feedIssueSelectComplete(c, 3*64) // warm: grow the profile to 64 rows
	const n = 1 << 20
	per := feedIssueSelectComplete(c, n)
	t.Logf("a ring-less collector allocated %.4f bytes per event", per)
	if per >= 0.01 {
		t.Errorf("a ring-less collector allocated %.3f bytes per event, want under 0.01", per)
	}
	if c.Events() != nil || c.Dropped() != 0 {
		t.Errorf("a ring-less collector kept %d events and dropped %d", len(c.Events()), c.Dropped())
	}
	if got := c.TotalsSnapshot().Issues; got != (n+3*64+2)/3 {
		t.Errorf("counted %d issues, want %d", got, (n+3*64+2)/3)
	}
}

// TestRinglessCollectorRefusesReplays: without a ring, the exports that
// replay events refuse with an error naming RingCapacity instead of
// answering from an empty ring, while the aggregates still answer.
func TestRinglessCollectorRefusesReplays(t *testing.T) {
	c, res, _ := runFib(t, Options{})
	if c.Events() != nil || c.Dropped() != 0 {
		t.Fatalf("a ring-less collector kept %d events and dropped %d", len(c.Events()), c.Dropped())
	}
	var buf bytes.Buffer
	refusals := map[string]error{"WriteChromeTrace": c.WriteChromeTrace(&buf)}
	_, refusals["CritPath"] = c.CritPath()
	_, refusals["unit WhatIf"] = c.WhatIf(Scenario{Kind: "unit", Unit: isa.UnitIntALU, Label: "+1 IntALU"})
	_, refusals["standby WhatIf"] = c.WhatIf(Scenario{Kind: "standby", Label: "+1 standby depth"})
	for name, err := range refusals {
		if !errors.Is(err, errNoRing) || !strings.Contains(err.Error(), "RingCapacity") {
			t.Errorf("%s on a ring-less collector: err = %v, want the RingCapacity refusal", name, err)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("refused WriteChromeTrace wrote %d bytes", buf.Len())
	}
	est, err := c.WhatIf(Scenario{Kind: "slot", Label: "+1 thread slot"})
	if err != nil || est.Baseline != res.Cycles {
		t.Errorf("+1 slot what-if on a ring-less collector = %+v, %v; want an answer over %d cycles", est, err, res.Cycles)
	}
	if p := c.Profile(); p.TotalIssues != res.Instructions {
		t.Errorf("profile counted %d issues, want %d", p.TotalIssues, res.Instructions)
	}
}
