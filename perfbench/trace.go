package main

import (
	"time"

	"hirata/internal/core"
	"hirata/internal/isa"
)

// span is one timed call into a layer. Spans nest: parent is the index of
// the enclosing span, or -1 for a region root ("setup" or "pass").
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps the traced run's spans in memory; they are reduced to
// per-layer self times when the run ends. A disabled tracer records
// nothing, so the untraced run pays one branch per call site.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 when none
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now(), open: -1} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: t.open})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.spans[i].parent
}

// selfTimes reduces the spans recorded since mark to self time per span
// name: each span's duration minus the durations of its direct children.
// The values sum to the total duration of the region roots in that range.
func (t *tracer) selfTimes(mark int) map[string]time.Duration {
	self := map[string]time.Duration{}
	for i := mark; i < len(t.spans); i++ {
		s := t.spans[i]
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= mark {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// stepProbe counts executed steps and quiescent skip jumps. StepStart
// never samples, so the core keeps the fused decode path it runs untraced.
type stepProbe struct {
	steps, jumps uint64
}

func (p *stepProbe) StepStart(uint64) bool       { return false }
func (p *stepProbe) PhaseEnd(core.HostPhase)     {}
func (p *stepProbe) StepEnd(core.TouchSample)    {}
func (p *stepProbe) SkipJump(from, to uint64)    { p.jumps++ }
func (p *stepProbe) RunEnd(cycles, steps uint64) { p.steps = steps }

// countingObserver counts the events it forwards to the wrapped observer.
type countingObserver struct {
	inner core.Observer
	n     uint64
}

func (o *countingObserver) Issue(cycle uint64, slot int, pc int64, ins isa.Instruction) {
	o.n++
	o.inner.Issue(cycle, slot, pc, ins)
}

func (o *countingObserver) Select(cycle uint64, slot int, pc int64, ins isa.Instruction, unit isa.UnitClass, unitIndex int, readyAt uint64) {
	o.n++
	o.inner.Select(cycle, slot, pc, ins, unit, unitIndex, readyAt)
}

func (o *countingObserver) Complete(cycle uint64, slot int, pc int64, ins isa.Instruction, unit isa.UnitClass, unitIndex int) {
	o.n++
	o.inner.Complete(cycle, slot, pc, ins, unit, unitIndex)
}

func (o *countingObserver) Stall(cycle uint64, slot int, pc int64, reason core.StallReason) {
	o.n++
	o.inner.Stall(cycle, slot, pc, reason)
}

func (o *countingObserver) Redirect(cycle uint64, slot int, pc int64) {
	o.n++
	o.inner.Redirect(cycle, slot, pc)
}

func (o *countingObserver) Bind(cycle uint64, slot, frame int, tid int64) {
	o.n++
	o.inner.Bind(cycle, slot, frame, tid)
}

func (o *countingObserver) Trap(cycle uint64, slot, frame int, addr int64) {
	o.n++
	o.inner.Trap(cycle, slot, frame, addr)
}

func (o *countingObserver) Rotate(cycle uint64, prio []int) {
	o.n++
	o.inner.Rotate(cycle, prio)
}

func (o *countingObserver) ThreadEnd(cycle uint64, slot, frame int, killed bool) {
	o.n++
	o.inner.ThreadEnd(cycle, slot, frame, killed)
}
