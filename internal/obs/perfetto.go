package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome Trace Event export. The format is the JSON "trace event" schema
// consumed by ui.perfetto.dev and chrome://tracing: an object with a
// traceEvents array whose members carry ph (phase), ts (microseconds),
// pid, tid and phase-specific fields. One simulated cycle maps to one
// microsecond of trace time.
//
// Track layout:
//
//	pid 1          "machine"           — rotate instants + IPC / slots-bound
//	                                     counters from the interval sampler
//	pid 2          "functional units"  — tid = unit ordinal; complete ("X")
//	                                     slices span the issue-latency
//	                                     occupancy of each selection
//	pid 100+slot   "slot N"            — instruction lifetime slices from
//	                                     issue to result-ready, lane-packed
//	                                     across tids so overlapping
//	                                     lifetimes never cross on a track;
//	                                     redirect/trap/bind/end instants
//
// Within one slot, instruction lifetimes overlap (that is the point of
// standby stations), and crossing "X" slices on a single track render
// badly; assignLanes packs them into the minimal set of non-overlapping
// lanes instead.
const (
	machinePID    = 1
	unitsPID      = 2
	slotPIDBase   = 100
	machineTID    = 0
	instrumentCat = "pipeline"
)

// traceEvent is one Chrome Trace Event. Field order is fixed, so the
// output is byte-stable for golden tests. Args is nil (omitted), a
// non-empty map[string]any, or one of the arg structs below.
type traceEvent struct {
	Name string `json:"name,omitempty"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	TS   uint64 `json:"ts"`
	Dur  uint64 `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	S    string `json:"s,omitempty"`
	Args any    `json:"args,omitempty"`
}

// Typed args for the slices drawn per ring event. encoding/json writes a
// map's keys sorted, so each struct lists its fields in sorted key order to
// emit the bytes the equivalent map would.
type (
	unitSliceArgs struct {
		PC      int64  `json:"pc"`
		ReadyAt uint64 `json:"ready_at"`
		Slot    int16  `json:"slot"`
	}
	slotSpanArgs struct {
		PC   int64  `json:"pc"`
		Unit string `json:"unit,omitempty"`
	}
)

// slotSpan is one instruction lifetime on a slot track.
type slotSpan struct {
	start, end uint64
	name       string
	pc         int64
	unit       string // empty until selected
	slotID     int
	lane       int
}

// WriteChromeTrace exports the collector's ring buffer as Chrome Trace
// Event JSON, viewable directly in ui.perfetto.dev. Dropped ring events
// truncate the timeline's beginning, never its structure. A collector
// that keeps no ring writes nothing and returns an error.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c.ring.capacity <= 0 {
		return errNoRing
	}
	c.mu.Lock()
	events := c.eventsLocked()
	samples := make([]Sample, len(c.samples))
	copy(samples, c.samples)
	units := c.units
	slots := c.slots
	dropped := c.dropped
	c.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := &traceEncoder{w: bw}
	enc.begin()

	// Track-naming metadata.
	enc.meta("process_name", machinePID, machineTID, "machine")
	enc.meta("thread_name", machinePID, machineTID, "scheduler")
	enc.meta("process_name", unitsPID, 0, "functional units")
	for ord, u := range units {
		enc.meta("thread_name", unitsPID, ord, u.Name)
	}
	spans, instants := buildSlotSpans(events)
	lanes := assignLanes(spans, slots)
	for s := 0; s < slots; s++ {
		enc.meta("process_name", slotPIDBase+s, 0, fmt.Sprintf("slot %d", s))
		n := lanes[s]
		if n == 0 {
			n = 1
		}
		for l := 0; l < n; l++ {
			enc.meta("thread_name", slotPIDBase+s, l, fmt.Sprintf("slot %d issue lane %d", s, l))
		}
	}
	if dropped > 0 {
		enc.event(traceEvent{Name: fmt.Sprintf("ring dropped %d events", dropped), Ph: "i",
			TS: 0, Pid: machinePID, Tid: machineTID, S: "g"})
	}

	// Functional-unit occupancy slices (select → select + issue latency).
	for _, e := range events {
		if e.Kind != KindSelect {
			continue
		}
		ord := c.ordinal(e.Unit, int(e.UnitIndex))
		if ord < 0 {
			continue
		}
		dur := uint64(e.Ins.Op.IssueLatency())
		if dur == 0 {
			dur = 1
		}
		enc.event(traceEvent{Name: e.Ins.String(), Cat: instrumentCat, Ph: "X",
			TS: e.Cycle, Dur: dur, Pid: unitsPID, Tid: ord,
			Args: unitSliceArgs{PC: e.PC, ReadyAt: e.ReadyAt, Slot: e.Slot}})
	}

	// Slot instruction-lifetime slices.
	for _, sp := range spans {
		dur := sp.end - sp.start
		if dur == 0 {
			dur = 1
		}
		enc.event(traceEvent{Name: sp.name, Cat: instrumentCat, Ph: "X",
			TS: sp.start, Dur: dur, Pid: slotPIDBase + sp.slotID, Tid: sp.lane,
			Args: slotSpanArgs{PC: sp.pc, Unit: sp.unit}})
	}

	// Instant events: redirects, traps, binds, thread ends, rotations.
	for _, e := range instants {
		enc.event(e)
	}

	// Counters from the interval sampler.
	for _, s := range samples {
		enc.event(traceEvent{Name: "IPC", Ph: "C", TS: s.StartCycle, Pid: machinePID, Tid: machineTID,
			Args: map[string]any{"ipc": s.IPC}})
		enc.event(traceEvent{Name: "slots bound", Ph: "C", TS: s.StartCycle, Pid: machinePID, Tid: machineTID,
			Args: map[string]any{"bound": s.SlotsBound}})
	}

	enc.end()
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// buildSlotSpans correlates Issue events with the Select that commits them
// and returns one lifetime span per issued instruction, plus the instant
// events rendered on slot and machine tracks. Decode-executed instructions
// (branches, thread control) never select; their span covers the single
// decode cycle.
func buildSlotSpans(events []Event) ([]slotSpan, []traceEvent) {
	var spans []slotSpan
	var instants []traceEvent
	// pending holds indexes into spans of issued-but-unselected
	// instructions, FIFO per (slot, pc): a Select commits the oldest one
	// with its pc, and the spans of instructions that never select sit in
	// queues no Select reads.
	type slotPC struct {
		slot int16
		pc   int64
	}
	pending := map[slotPC][]int{}
	for _, e := range events {
		switch e.Kind {
		case KindIssue:
			spans = append(spans, slotSpan{
				start: e.Cycle, end: e.Cycle + 1,
				name: e.Ins.String(), pc: e.PC, slotID: int(e.Slot),
			})
			k := slotPC{e.Slot, e.PC}
			pending[k] = append(pending[k], len(spans)-1)
		case KindSelect:
			k := slotPC{e.Slot, e.PC}
			if q := pending[k]; len(q) > 0 {
				idx := q[0]
				end := e.ReadyAt
				if end <= spans[idx].start {
					end = spans[idx].start + 1
				}
				spans[idx].end = end
				spans[idx].unit = unitName(e.Unit, int(e.UnitIndex))
				pending[k] = q[1:]
			}
		case KindRedirect:
			instants = append(instants, traceEvent{Name: fmt.Sprintf("redirect→%d", e.PC), Ph: "i",
				TS: e.Cycle, Pid: slotPIDBase + int(e.Slot), Tid: 0, S: "t"})
		case KindTrap:
			instants = append(instants, traceEvent{Name: fmt.Sprintf("trap frame=%d addr=%d", e.Frame, e.Aux), Ph: "i",
				TS: e.Cycle, Pid: slotPIDBase + int(e.Slot), Tid: 0, S: "p"})
		case KindBind:
			instants = append(instants, traceEvent{Name: fmt.Sprintf("bind frame=%d tid=%d", e.Frame, e.Aux), Ph: "i",
				TS: e.Cycle, Pid: slotPIDBase + int(e.Slot), Tid: 0, S: "t"})
		case KindThreadEnd:
			how := "halt"
			if e.Killed {
				how = "killed"
			}
			instants = append(instants, traceEvent{Name: fmt.Sprintf("end frame=%d (%s)", e.Frame, how), Ph: "i",
				TS: e.Cycle, Pid: slotPIDBase + int(e.Slot), Tid: 0, S: "t"})
		case KindRotate:
			instants = append(instants, traceEvent{Name: fmt.Sprintf("rotate head=slot%d", e.Aux), Ph: "i",
				TS: e.Cycle, Pid: machinePID, Tid: machineTID, S: "p"})
		case KindStall:
			instants = append(instants, traceEvent{Name: "stall " + e.Reason.String(), Ph: "i",
				TS: e.Cycle, Pid: slotPIDBase + int(e.Slot), Tid: 0, S: "t"})
		}
	}
	return spans, instants
}

// assignLanes packs each slot's spans into the minimal number of
// non-overlapping lanes (greedy interval partitioning; spans arrive sorted
// by start cycle because the ring is chronological). Returns the lane
// count per slot.
func assignLanes(spans []slotSpan, slots int) []int {
	laneEnds := make([][]uint64, slots)
	counts := make([]int, slots)
	for i := range spans {
		s := spans[i].slotID
		if s < 0 || s >= slots {
			continue
		}
		lane := -1
		for l, end := range laneEnds[s] {
			if end <= spans[i].start {
				lane = l
				break
			}
		}
		if lane == -1 {
			laneEnds[s] = append(laneEnds[s], 0)
			lane = len(laneEnds[s]) - 1
		}
		laneEnds[s][lane] = spans[i].end
		spans[i].lane = lane
		if lane+1 > counts[s] {
			counts[s] = lane + 1
		}
	}
	return counts
}

// traceEncoder streams the traceEvents array without buffering the whole
// trace in memory.
type traceEncoder struct {
	w     io.Writer
	first bool
	err   error
}

func (e *traceEncoder) begin() {
	e.first = true
	_, e.err = io.WriteString(e.w, `{"traceEvents":[`)
}

func (e *traceEncoder) event(ev traceEvent) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		e.err = err
		return
	}
	if !e.first {
		if _, e.err = io.WriteString(e.w, ","); e.err != nil {
			return
		}
	}
	e.first = false
	_, e.err = e.w.Write(b)
}

func (e *traceEncoder) meta(name string, pid, tid int, value string) {
	e.event(traceEvent{Name: name, Ph: "M", TS: 0, Pid: pid, Tid: tid,
		Args: map[string]any{"name": value}})
}

func (e *traceEncoder) end() {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, `]}`)
}
