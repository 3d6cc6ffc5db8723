package obs

import (
	"io"
	"os"
	"testing"

	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/minc"
)

// TestBuildSlotSpansCommitsOldest: a Select ends the oldest issued span
// with its slot and pc, even while another slot's span or a younger span
// with the same pc waits and a decode-executed branch that never selects
// sits between them.
func TestBuildSlotSpansCommitsOldest(t *testing.T) {
	add := isa.Instruction{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R1, Imm: 1}
	br := isa.Instruction{Op: isa.BNEZ, Rs1: isa.R1, Imm: -2}
	issue := func(cycle uint64, slot int16, pc int64, ins isa.Instruction) Event {
		return Event{Kind: KindIssue, Cycle: cycle, Slot: slot, PC: pc, Ins: ins}
	}
	sel := func(cycle uint64, slot int16, pc int64, idx uint8, readyAt uint64) Event {
		return Event{Kind: KindSelect, Cycle: cycle, Slot: slot, PC: pc, Ins: add,
			Unit: isa.UnitIntALU, UnitIndex: idx, ReadyAt: readyAt}
	}
	spans, _ := buildSlotSpans([]Event{
		issue(0, 0, 5, add), issue(0, 1, 5, add), issue(1, 0, 5, add), issue(1, 0, 9, br),
		sel(2, 1, 5, 1, 3), sel(2, 0, 5, 0, 6), sel(3, 0, 5, 0, 3), sel(4, 0, 7, 0, 5),
	})
	alu0, alu1 := unitName(isa.UnitIntALU, 0), unitName(isa.UnitIntALU, 1)
	want := []slotSpan{
		{start: 0, end: 6, pc: 5, unit: alu0, slotID: 0},
		{start: 0, end: 3, pc: 5, unit: alu1, slotID: 1},
		{start: 1, end: 3, pc: 5, unit: alu0, slotID: 0},
		{start: 1, end: 2, pc: 9, slotID: 0},
	}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(spans), len(want))
	}
	for i, sp := range spans {
		sp.name = ""
		if sp != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, sp, want[i])
		}
	}
}

// BenchmarkWriteChromeTrace writes the Chrome trace of a 1-slot MinC mandel
// run with stall events kept — a long run whose decode-executed branches
// never select — and reports the cost per ring event.
func BenchmarkWriteChromeTrace(b *testing.B) {
	src, err := os.ReadFile("../../examples/programs/mandel.mc")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := minc.Compile(string(src))
	if err != nil {
		b.Fatal(err)
	}
	m, err := prog.NewMemory(4096)
	if err != nil {
		b.Fatal(err)
	}
	minc.SetThreads(prog, m, 1)
	cfg := core.Config{ThreadSlots: 1}
	p, err := core.New(cfg, prog.Text, m)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCollector(cfg, Options{KeepStallEvents: true, RingCapacity: DefaultRingCapacity})
	p.Observe(c)
	if err := p.StartThread(0); err != nil {
		b.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		b.Fatal(err)
	}
	c.Finalize(res)
	events := len(c.Events())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}
