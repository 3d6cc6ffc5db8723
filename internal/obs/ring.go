package obs

import (
	"hirata/internal/core"
	"hirata/internal/isa"
)

// ringChunk is the number of records per ring chunk.
const ringChunk = 4096

// record is the ring's 32-byte form of an Event. Which fields are
// meaningful depends on kind; event decodes it.
type record struct {
	cycle uint64
	word  int64 // PC; Bind: thread id; Trap: remote address; Rotate: new head slot
	ins   isa.Instruction
	// aux is ReadyAt − Cycle for a Select (the core's result latency, which
	// its completion ring bounds far below 2^32) and the frame for a Bind,
	// Trap or ThreadEnd.
	aux   uint32
	kind  Kind
	unit  isa.UnitClass
	index uint8 // Select/Complete: unit index; Stall: reason; ThreadEnd: killed
	slot  int8
}

// event decodes r into the Event the collector was handed.
func (r *record) event() Event {
	e := Event{Kind: r.kind, Unit: r.unit, Slot: int16(r.slot), Cycle: r.cycle, PC: r.word, Ins: r.ins}
	switch r.kind {
	case KindSelect:
		e.UnitIndex = r.index
		e.ReadyAt = r.cycle + uint64(r.aux)
	case KindComplete:
		e.UnitIndex = r.index
	case KindStall:
		e.Reason = core.StallReason(r.index)
	case KindBind, KindTrap, KindRotate:
		e.PC, e.Aux = -1, r.word
		e.Frame = int16(r.aux)
	case KindThreadEnd:
		e.Frame = int16(r.aux)
		e.Killed = r.index != 0
	}
	return e
}

// eventRing is a bounded ring of records stored in fixed-size chunks. A
// chunk is allocated when the write position first reaches it (the last one
// sized to what is left of the capacity), so growth never copies and
// capacity a run never reaches costs nothing. Once full, each write
// overwrites the oldest record in place. A capacity of zero or less keeps
// nothing, and the collector does not push to it.
type eventRing struct {
	chunks   [][]record
	capacity int
	next     int // write position
	full     bool
}

// push stores rec and reports whether it overwrote (dropped) the oldest.
func (r *eventRing) push(rec record) (dropped bool) {
	ci := r.next / ringChunk
	if ci == len(r.chunks) {
		r.chunks = append(r.chunks, make([]record, min(ringChunk, r.capacity-r.next)))
	}
	r.chunks[ci][r.next%ringChunk] = rec
	dropped = r.full
	if r.next++; r.next == r.capacity {
		r.next, r.full = 0, true
	}
	return dropped
}

// events decodes the ring oldest first: nil for a ring of capacity zero.
func (r *eventRing) events() []Event {
	if r.capacity <= 0 {
		return nil
	}
	n, pos := r.next, 0
	if r.full {
		n, pos = r.capacity, r.next
	}
	out := make([]Event, n)
	for i := range out {
		p := (pos + i) % r.capacity
		out[i] = r.chunks[p/ringChunk][p%ringChunk].event()
	}
	return out
}
