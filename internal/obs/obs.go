// Package obs is the simulator's observability layer: it turns the
// microarchitectural event stream of core.Observer into artifacts a
// systems engineer can actually look at.
//
//   - Collector aggregates run totals, a per-PC hotspot profile,
//     per-interval time-series metrics and CPI accounting, and on request
//     records events into a bounded ring buffer, all behind one mutex so a
//     live HTTP server can read while a run writes.
//   - WriteChromeTrace exports the ring as Chrome Trace Event JSON — one
//     track group per thread slot and per functional unit — loadable
//     directly in ui.perfetto.dev or chrome://tracing.
//   - Profile/WriteAnnotated render a perf-annotate-style disassembly
//     report attributing issues, busy cycles and stalls to static
//     instructions via the assembler's source-line map.
//   - WritePrometheus/WriteMetricsJSON expose totals and the interval
//     time series in Prometheus text format and JSON.
//   - Handler serves the whole surface (plus net/http/pprof) over HTTP
//     while a long simulation executes.
//
// The paper's entire evaluation (§3) is built on unit utilization
// U = N·L/T and stall attribution; this package exposes the same
// quantities as time series instead of end-of-run aggregates. See
// docs/OBSERVABILITY.md for the event model and format references.
package obs

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/trace"
)

// Kind enumerates the collected event kinds, mirroring core.Observer.
type Kind uint8

// Event kinds.
const (
	KindIssue Kind = iota
	KindSelect
	KindComplete
	KindStall
	KindRedirect
	KindBind
	KindTrap
	KindRotate
	KindThreadEnd
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindIssue:
		return "issue"
	case KindSelect:
		return "select"
	case KindComplete:
		return "complete"
	case KindStall:
		return "stall"
	case KindRedirect:
		return "redirect"
	case KindBind:
		return "bind"
	case KindTrap:
		return "trap"
	case KindRotate:
		return "rotate"
	case KindThreadEnd:
		return "thread-end"
	}
	return "unknown"
}

// Event is one recorded pipeline event. Which fields are meaningful
// depends on Kind; Cycle and Slot are always set (Slot is -1 for the
// machine-global rotate event).
type Event struct {
	Kind      Kind
	Unit      isa.UnitClass    // Select/Complete
	UnitIndex uint8            // Select/Complete
	Reason    core.StallReason // Stall
	Killed    bool             // ThreadEnd
	Slot      int16
	Frame     int16 // Bind/Trap/ThreadEnd
	Cycle     uint64
	PC        int64  // Issue/Select/Complete/Stall/Redirect (-1 = none)
	ReadyAt   uint64 // Select: cycle the result becomes visible
	Aux       int64  // Bind: thread id; Trap: remote address; Rotate: new head slot
	Ins       isa.Instruction
}

// DefaultRingCapacity is the event ring size for callers that replay
// events: the Chrome trace, the critical path and the unit and standby
// what-if estimates.
const DefaultRingCapacity = 1 << 20

// errNoRing is the refusal of an export that replays the event ring, from
// a Collector that keeps none.
var errNoRing = errors.New("obs: the collector keeps no event ring to replay (build it with Options.RingCapacity > 0, e.g. DefaultRingCapacity)")

// Options configure a Collector.
type Options struct {
	// RingCapacity bounds the event ring buffer; older events are dropped
	// once it fills (Dropped counts them). Zero or less keeps no ring:
	// the totals, profile, interval samples and CPI accounting stay
	// exact, and the exports that replay events return an error.
	RingCapacity int
	// MetricsInterval closes one metrics Sample every N cycles. 0 disables
	// interval sampling (totals are always kept).
	MetricsInterval int
	// KeepStallEvents records raw stall events in the ring. Stalls are
	// always aggregated into the profile and interval metrics; the raw
	// events dominate ring space on stall-heavy runs, so by default only
	// the aggregates keep them.
	KeepStallEvents bool
}

// UnitInfo describes one functional-unit instance and its stable ordinal
// (the tid of its timeline track and the index of its metrics series).
type UnitInfo struct {
	Class isa.UnitClass
	Index int
	Name  string // e.g. "IntALU[0]"
}

// Totals aggregates a whole run.
type Totals struct {
	Issues     uint64
	Selects    uint64
	Completes  uint64
	StallCount uint64     // stall cycles summed over slots
	UnitBusy   []uint64   // by unit ordinal: Σ issue latency
	UnitInvocs []uint64   // by unit ordinal
	SlotIssued []uint64   // by slot
	SlotStalls [][]uint64 // [slot][reason]
}

// PCStat attributes activity to one static instruction.
type PCStat struct {
	PC            int64
	Ins           isa.Instruction
	Issues        uint64
	Selects       uint64
	BusyCycles    uint64 // Σ issue latency of selections
	LatencyCycles uint64 // Σ (readyAt − select cycle): result latency incl. misses
	StallCycles   uint64 // decode stall cycles charged while this pc headed the window
	Completes     uint64
}

// Sample is one closed metrics interval [StartCycle, EndCycle).
type Sample struct {
	StartCycle uint64   `json:"start_cycle"`
	EndCycle   uint64   `json:"end_cycle"`
	Issued     uint64   `json:"issued"`
	IPC        float64  `json:"ipc"`
	UnitBusy   []uint64 `json:"unit_busy"`   // by unit ordinal
	Stalls     []uint64 `json:"stalls"`      // by core.StallReason
	SlotsBound int      `json:"slots_bound"` // at interval close
}

// Collector is a core.Observer that aggregates a run and, when built with
// a RingCapacity, records its events. Attach with Processor.Observe (it
// composes with other observers), then export with Profile, CPIStack,
// WritePrometheus, WriteChromeTrace, or serve live via Handler. All
// methods are safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	opt   Options
	slots int
	units []UnitInfo
	// unitOrd maps (class, index) to the ordinal in units.
	unitOrd [int(isa.UnitLoadStore) + 1][]int

	ring    eventRing
	dropped uint64

	totals Totals
	// profile is indexed by pc, a text index or a trace stream position;
	// a row is live once one of its counters is non-zero.
	profile   []PCStat
	lastCycle uint64
	bound     uint64 // bitset of bound slots (ThreadSlots ≤ 64)

	interval  Sample // accumulating current interval (when MetricsInterval > 0)
	samples   []Sample
	finalized bool
	final     core.Result

	// acct is the per-slot cycle-accounting state behind CPIStack
	// (account.go): which cycles issued at least one instruction, and how
	// long each slot sat unbound (and why).
	acct []slotAccount
}

// slotAccount tracks one slot's CPI-stack inputs incrementally, so the
// accounting costs O(1) per event instead of a ring replay (the ring may
// have dropped events; the accounting never does).
type slotAccount struct {
	issueCycles uint64 // distinct cycles with ≥1 issue from this slot
	lastIssue   uint64
	haveIssue   bool
	lastStall   uint64
	haveStall   bool
	bound       bool
	gapStart    uint64 // cycle the slot became unbound (or 0 at reset)
	gapRemote   bool   // gap opened by a data-absence trap, not a thread end
	remoteWait  uint64 // closed-gap cycles waiting on a remote access
	idle        uint64 // closed-gap cycles with no thread to run
}

// closeGap charges an open unbound gap ending at cycle.
func (a *slotAccount) closeGap(cycle uint64) {
	if a.bound || cycle <= a.gapStart {
		return
	}
	if a.gapRemote {
		a.remoteWait += cycle - a.gapStart
	} else {
		a.idle += cycle - a.gapStart
	}
}

// unbind opens a gap at cycle. A HALT issues (and a kill can land after a
// stall) on the unbind cycle itself; that cycle is already accounted, so
// the gap starts one later. A data-absence trap consumes its cycle with no
// issue or stall event, so there the gap covers the trap cycle too.
func (a *slotAccount) unbind(cycle uint64, remote bool) {
	a.bound = false
	a.gapStart = cycle
	if (a.haveIssue && a.lastIssue == cycle) || (a.haveStall && a.lastStall == cycle) {
		a.gapStart = cycle + 1
	}
	a.gapRemote = remote
}

// NewCollector builds a collector for a machine of the given shape. Only
// ThreadSlots and the unit census (LoadStoreUnits + ExtraUnits) are read
// from cfg (they size the slot and functional-unit track sets); zero values
// default like core does. The zero Options keep no event ring.
func NewCollector(cfg core.Config, opt Options) *Collector {
	slots := cfg.ThreadSlots
	if slots <= 0 {
		slots = 1
	}
	c := &Collector{opt: opt, slots: slots, ring: eventRing{capacity: opt.RingCapacity}}
	for cls := isa.UnitClass(1); int(cls) <= isa.NumUnitClasses; cls++ {
		n := cfg.UnitCount(cls)
		for i := 0; i < n; i++ {
			c.unitOrd[cls] = append(c.unitOrd[cls], len(c.units))
			c.units = append(c.units, UnitInfo{Class: cls, Index: i, Name: unitName(cls, i)})
		}
	}
	c.totals.UnitBusy = make([]uint64, len(c.units))
	c.totals.UnitInvocs = make([]uint64, len(c.units))
	c.totals.SlotIssued = make([]uint64, slots)
	c.totals.SlotStalls = make([][]uint64, slots)
	for i := range c.totals.SlotStalls {
		c.totals.SlotStalls[i] = make([]uint64, core.NumStallReasons)
	}
	c.acct = make([]slotAccount, slots)
	c.interval = c.newSample(0)
	return c
}

func unitName(cls isa.UnitClass, idx int) string {
	return fmt.Sprintf("%s[%d]", cls, idx)
}

// Units lists the functional-unit instances in ordinal order.
func (c *Collector) Units() []UnitInfo { return c.units }

// Slots returns the thread-slot count the collector was built for.
func (c *Collector) Slots() int { return c.slots }

// ordinal maps a (class, index) pair to the unit's stable ordinal.
func (c *Collector) ordinal(cls isa.UnitClass, idx int) int {
	if int(cls) >= len(c.unitOrd) || idx < 0 || idx >= len(c.unitOrd[cls]) {
		return -1
	}
	return c.unitOrd[cls][idx]
}

func (c *Collector) newSample(start uint64) Sample {
	return Sample{
		StartCycle: start,
		UnitBusy:   make([]uint64, len(c.units)),
		Stalls:     make([]uint64, core.NumStallReasons),
	}
}

// advance rolls the interval sampler forward to cycle, closing any
// intervals the event stream has passed. Call with c.mu held.
func (c *Collector) advance(cycle uint64) {
	if cycle > c.lastCycle {
		c.lastCycle = cycle
	}
	n := uint64(c.opt.MetricsInterval)
	if n == 0 {
		return
	}
	for cycle >= c.interval.StartCycle+n {
		c.closeInterval(c.interval.StartCycle + n)
	}
}

// closeInterval finalises the accumulating sample at end. Call with c.mu
// held; end must be > the sample's start.
func (c *Collector) closeInterval(end uint64) {
	s := c.interval
	s.EndCycle = end
	s.IPC = float64(s.Issued) / float64(end-s.StartCycle)
	s.SlotsBound = bits.OnesCount64(c.bound)
	c.samples = append(c.samples, s)
	c.interval = c.newSample(end)
}

// push records an event in the ring buffer, if the collector keeps one.
// Call with c.mu held.
func (c *Collector) push(r record) {
	if c.ring.capacity > 0 && c.ring.push(r) {
		c.dropped++
	}
}

// pcStat returns the profile row for pc, growing the table to reach it, or
// nil for a pc outside [0, trace.MaxRecords). The core emits text indices
// and trace stream positions, both below that cap; a pc beyond it from
// another source is left out of the profile. Call with c.mu held.
func (c *Collector) pcStat(pc int64) *PCStat {
	if uint64(pc) < uint64(len(c.profile)) {
		return &c.profile[pc]
	}
	return c.growProfile(pc)
}

func (c *Collector) growProfile(pc int64) *PCStat {
	if pc < 0 || pc >= trace.MaxRecords {
		return nil
	}
	c.profile = append(c.profile, make([]PCStat, int(pc)+1-len(c.profile))...)
	return &c.profile[pc]
}

// Issue implements core.Observer.
func (c *Collector) Issue(cycle uint64, slot int, pc int64, ins isa.Instruction) {
	c.mu.Lock()
	c.advance(cycle)
	c.totals.Issues++
	if slot >= 0 && slot < len(c.totals.SlotIssued) {
		c.totals.SlotIssued[slot]++
		a := &c.acct[slot]
		if !a.haveIssue || a.lastIssue != cycle {
			a.issueCycles++
			a.lastIssue = cycle
			a.haveIssue = true
		}
	}
	c.interval.Issued++
	if st := c.pcStat(pc); st != nil {
		st.Ins = ins
		st.Issues++
	}
	c.push(record{kind: KindIssue, cycle: cycle, slot: int8(slot), word: pc, ins: ins})
	c.mu.Unlock()
}

// Select implements core.Observer.
func (c *Collector) Select(cycle uint64, slot int, pc int64, ins isa.Instruction, unit isa.UnitClass, unitIndex int, readyAt uint64) {
	c.mu.Lock()
	c.advance(cycle)
	c.totals.Selects++
	lat := uint64(ins.Op.IssueLatency())
	if ord := c.ordinal(unit, unitIndex); ord >= 0 {
		c.totals.UnitBusy[ord] += lat
		c.totals.UnitInvocs[ord]++
		c.interval.UnitBusy[ord] += lat
	}
	if st := c.pcStat(pc); st != nil {
		st.Ins = ins
		st.Selects++
		st.BusyCycles += lat
		if readyAt > cycle {
			st.LatencyCycles += readyAt - cycle
		}
	}
	c.push(record{kind: KindSelect, cycle: cycle, slot: int8(slot), word: pc, ins: ins,
		unit: unit, index: uint8(unitIndex), aux: uint32(readyAt - cycle)})
	c.mu.Unlock()
}

// Complete implements core.Observer.
func (c *Collector) Complete(cycle uint64, slot int, pc int64, ins isa.Instruction, unit isa.UnitClass, unitIndex int) {
	c.mu.Lock()
	c.advance(cycle)
	c.totals.Completes++
	if st := c.pcStat(pc); st != nil {
		st.Completes++
	}
	c.push(record{kind: KindComplete, cycle: cycle, slot: int8(slot), word: pc, ins: ins,
		unit: unit, index: uint8(unitIndex)})
	c.mu.Unlock()
}

// Stall implements core.Observer.
func (c *Collector) Stall(cycle uint64, slot int, pc int64, reason core.StallReason) {
	c.mu.Lock()
	c.advance(cycle)
	c.totals.StallCount++
	if slot >= 0 && slot < len(c.totals.SlotStalls) && int(reason) < len(c.totals.SlotStalls[slot]) {
		c.totals.SlotStalls[slot][reason]++
		a := &c.acct[slot]
		a.lastStall = cycle
		a.haveStall = true
	}
	if int(reason) < len(c.interval.Stalls) {
		c.interval.Stalls[reason]++
	}
	// Attribute the stall to the instruction heading the window (pc -1:
	// none).
	if st := c.pcStat(pc); st != nil {
		st.StallCycles++
	}
	if c.opt.KeepStallEvents {
		c.push(record{kind: KindStall, cycle: cycle, slot: int8(slot), word: pc, index: uint8(reason)})
	}
	c.mu.Unlock()
}

// Redirect implements core.Observer.
func (c *Collector) Redirect(cycle uint64, slot int, pc int64) {
	c.mu.Lock()
	c.advance(cycle)
	c.push(record{kind: KindRedirect, cycle: cycle, slot: int8(slot), word: pc})
	c.mu.Unlock()
}

// Bind implements core.Observer.
func (c *Collector) Bind(cycle uint64, slot, frame int, tid int64) {
	c.mu.Lock()
	c.advance(cycle)
	if slot >= 0 && slot < 64 {
		c.bound |= 1 << uint(slot)
	}
	if slot >= 0 && slot < len(c.acct) {
		a := &c.acct[slot]
		a.closeGap(cycle)
		a.bound = true
	}
	c.push(record{kind: KindBind, cycle: cycle, slot: int8(slot), aux: uint32(frame), word: tid})
	c.mu.Unlock()
}

// Trap implements core.Observer.
func (c *Collector) Trap(cycle uint64, slot, frame int, addr int64) {
	c.mu.Lock()
	c.advance(cycle)
	if slot >= 0 && slot < 64 {
		c.bound &^= 1 << uint(slot)
	}
	if slot >= 0 && slot < len(c.acct) && c.acct[slot].bound {
		c.acct[slot].unbind(cycle, true)
	}
	c.push(record{kind: KindTrap, cycle: cycle, slot: int8(slot), aux: uint32(frame), word: addr})
	c.mu.Unlock()
}

// Rotate implements core.Observer.
func (c *Collector) Rotate(cycle uint64, prio []int) {
	head := -1
	if len(prio) > 0 {
		head = prio[0]
	}
	c.mu.Lock()
	c.advance(cycle)
	c.push(record{kind: KindRotate, cycle: cycle, slot: -1, word: int64(head)})
	c.mu.Unlock()
}

// ThreadEnd implements core.Observer.
func (c *Collector) ThreadEnd(cycle uint64, slot, frame int, killed bool) {
	c.mu.Lock()
	c.advance(cycle)
	if slot >= 0 && slot < 64 {
		c.bound &^= 1 << uint(slot)
	}
	if slot >= 0 && slot < len(c.acct) && c.acct[slot].bound {
		c.acct[slot].unbind(cycle, false)
	}
	var k uint8
	if killed {
		k = 1
	}
	c.push(record{kind: KindThreadEnd, cycle: cycle, slot: int8(slot), aux: uint32(frame), index: k, word: -1})
	c.mu.Unlock()
}

// Finalize records the run's Result and closes the trailing metrics
// interval at the final cycle count. Optional, but makes /metrics and the
// profile report exact instead of last-event-bounded.
func (c *Collector) Finalize(res core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finalized = true
	c.final = res
	if res.Cycles > c.lastCycle {
		c.lastCycle = res.Cycles
	}
	if c.opt.MetricsInterval > 0 && c.interval.Issued > 0 && res.Cycles > c.interval.StartCycle {
		c.closeInterval(res.Cycles)
	}
}

// Cycles returns the run length: the Finalize result's cycle count, or the
// last observed event cycle + 1 while the run is still in flight.
func (c *Collector) Cycles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cyclesLocked()
}

func (c *Collector) cyclesLocked() uint64 {
	if c.finalized {
		return c.final.Cycles
	}
	if c.totals.Issues == 0 && c.lastCycle == 0 {
		return 0
	}
	return c.lastCycle + 1
}

// Dropped reports how many events fell out of the ring buffer: always 0
// for a collector that keeps no ring.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Events returns a chronological copy of the ring buffer, or nil when the
// collector keeps no ring.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eventsLocked()
}

func (c *Collector) eventsLocked() []Event { return c.ring.events() }

// Samples returns a copy of the closed metrics intervals.
func (c *Collector) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Sample, len(c.samples))
	copy(out, c.samples)
	return out
}

// TotalsSnapshot returns a deep copy of the run totals.
func (c *Collector) TotalsSnapshot() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalsLocked()
}

// totalsLocked deep-copies the run totals. The slices must be copied, not
// aliased: a caller that unlocks before rendering would otherwise race
// with a live run's observer callbacks.
func (c *Collector) totalsLocked() Totals {
	t := c.totals
	t.UnitBusy = append([]uint64(nil), c.totals.UnitBusy...)
	t.UnitInvocs = append([]uint64(nil), c.totals.UnitInvocs...)
	t.SlotIssued = append([]uint64(nil), c.totals.SlotIssued...)
	t.SlotStalls = make([][]uint64, len(c.totals.SlotStalls))
	for i, row := range c.totals.SlotStalls {
		t.SlotStalls[i] = append([]uint64(nil), row...)
	}
	return t
}
