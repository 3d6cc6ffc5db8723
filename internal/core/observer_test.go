package core

import (
	"strings"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

func TestTextTracerEvents(t *testing.T) {
	prog := asm.MustAssemble(`
		ffork
		tid  r1
		addi r2, r1, 1
		mul  r3, r2, r2
		bnez r1, other
		sw   r3, 100(r0)
		halt
	other:	sw   r3, 101(r0)
		halt
	`)
	m, _ := prog.NewMemory(128)
	p, err := New(Config{ThreadSlots: 2, StandbyStations: true, RotationInterval: 4}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	p.Observe(&TextTracer{W: &buf})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"issue", "select", "redirect", "bind", "rotate", "end", "IntALU", "IntMul", "halt",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, firstLines(out, 20))
		}
	}
	// Order sanity: the first bind precedes the first issue.
	if strings.Index(out, "bind") > strings.Index(out, "issue") {
		t.Error("bind event did not precede the first issue")
	}
}

func TestTracerTrapEvent(t *testing.T) {
	prog := asm.MustAssemble(`
		lw   r1, 1000(r0)
		addi r2, r1, 1
		halt
	`)
	m := mem.NewMemoryWithRemote(2048, 1000, 100)
	m.SetInt(1000, 5)
	p, err := New(Config{ThreadSlots: 1, ContextFrames: 2, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	p.Observe(&TextTracer{W: &buf})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trap") {
		t.Errorf("no trap event in trace:\n%s", firstLines(buf.String(), 20))
	}
}

// countingObserver tallies events per callback, for composition tests.
type countingObserver struct {
	issues, selects, completes, stalls, redirects, binds, traps, rotates, ends int
}

func (c *countingObserver) Issue(uint64, int, int64, isa.Instruction) { c.issues++ }
func (c *countingObserver) Select(uint64, int, int64, isa.Instruction, isa.UnitClass, int, uint64) {
	c.selects++
}
func (c *countingObserver) Complete(uint64, int, int64, isa.Instruction, isa.UnitClass, int) {
	c.completes++
}
func (c *countingObserver) Stall(uint64, int, int64, StallReason) { c.stalls++ }
func (c *countingObserver) Redirect(uint64, int, int64)           { c.redirects++ }
func (c *countingObserver) Bind(uint64, int, int, int64)          { c.binds++ }
func (c *countingObserver) Trap(uint64, int, int, int64)          { c.traps++ }
func (c *countingObserver) Rotate(uint64, []int)                  { c.rotates++ }
func (c *countingObserver) ThreadEnd(uint64, int, int, bool)      { c.ends++ }

// hookObserver is a test Observer that passes each Issue and Select
// event's (slot, pc, cycle) to issue and sel, when set, and ignores the
// other events.
type hookObserver struct {
	issue, sel func(slot int, pc int64, cycle uint64)
}

func (h *hookObserver) Issue(cycle uint64, slot int, pc int64, _ isa.Instruction) {
	if h.issue != nil {
		h.issue(slot, pc, cycle)
	}
}
func (h *hookObserver) Select(cycle uint64, slot int, pc int64, _ isa.Instruction, _ isa.UnitClass, _ int, _ uint64) {
	if h.sel != nil {
		h.sel(slot, pc, cycle)
	}
}
func (*hookObserver) Complete(uint64, int, int64, isa.Instruction, isa.UnitClass, int) {}
func (*hookObserver) Stall(uint64, int, int64, StallReason)                            {}
func (*hookObserver) Redirect(uint64, int, int64)                                      {}
func (*hookObserver) Bind(uint64, int, int, int64)                                     {}
func (*hookObserver) Trap(uint64, int, int, int64)                                     {}
func (*hookObserver) Rotate(uint64, []int)                                             {}
func (*hookObserver) ThreadEnd(uint64, int, int, bool)                                 {}

// TestObserveComposes checks that repeated Observe calls fan out instead of
// replacing the previously attached observer.
func TestObserveComposes(t *testing.T) {
	prog := asm.MustAssemble(`
		addi r1, r0, 3
	loop:	addi r1, r1, -1
		bnez r1, loop
		halt
	`)
	m, _ := prog.NewMemory(64)
	p, err := New(Config{ThreadSlots: 1, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	var a, b countingObserver
	p.Observe(&a)
	p.Observe(&b)
	p.Observe(nil) // ignored
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("composed observers diverge: a=%+v b=%+v", a, b)
	}
	if a.issues == 0 || a.selects == 0 || a.binds == 0 || a.ends == 0 {
		t.Errorf("observer missed events: %+v", a)
	}
	if uint64(a.issues) != res.Instructions {
		t.Errorf("issues = %d, want %d", a.issues, res.Instructions)
	}
}

// TestCompleteAndStallEvents checks the write-back and stall callbacks the
// observability layer's latency/stall attribution depends on.
func TestCompleteAndStallEvents(t *testing.T) {
	// The mul chain guarantees data stalls (result latency 5) and the
	// selected instructions must all complete.
	prog := asm.MustAssemble(`
		addi r1, r0, 7
		mul  r2, r1, r1
		mul  r3, r2, r2
		add  r4, r3, r3
		sw   r4, 100(r0)
		halt
	`)
	m, _ := prog.NewMemory(128)
	p, err := New(Config{ThreadSlots: 1, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	var c countingObserver
	p.Observe(&c)
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.completes != c.selects {
		t.Errorf("completes = %d, selects = %d; every selected instruction must complete", c.completes, c.selects)
	}
	if c.completes == 0 {
		t.Error("no complete events")
	}
	if c.stalls == 0 {
		t.Error("no stall events despite a dependent mul chain")
	}
	var recorded uint64
	for _, s := range res.Slots {
		for _, n := range s.Stalls {
			recorded += n
		}
	}
	if uint64(c.stalls) != recorded {
		t.Errorf("stall events = %d, Result stall count = %d", c.stalls, recorded)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
