package core

import (
	"strconv"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// runSrc assembles src and runs it on a processor with cfg, returning the
// processor and result.
func runSrc(t *testing.T, cfg Config, src string, startPCs ...int64) (*Processor, Result) {
	t.Helper()
	prog := asm.MustAssemble(src)
	m, err := prog.NewMemory(256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range startPCs {
		if err := p.StartThread(pc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestSingleThreadBasic(t *testing.T) {
	p, res := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, `
		addi r1, r0, 10
		addi r2, r0, 0
	loop:	add  r2, r2, r1
		addi r1, r1, -1
		bnez r1, loop
		sw   r2, 100(r0)
		halt
	`)
	if got := p.Mem().IntAt(100); got != 55 {
		t.Errorf("mem[100] = %d, want 55", got)
	}
	if res.Instructions != 2+10*3+2 {
		t.Errorf("instructions = %d, want 34", res.Instructions)
	}
	if res.Cycles == 0 || res.Cycles > 500 {
		t.Errorf("cycles = %d, implausible", res.Cycles)
	}
}

// TestDependentIssueDistance pins the paper's statement that an instruction
// using a 2-cycle-latency result issues 3 cycles after its producer, and
// that independent instructions issue back to back.
func TestDependentIssueDistance(t *testing.T) {
	prog := asm.MustAssemble(`
		addi r1, r0, 1
		addi r2, r1, 1   ; depends on r1
		addi r3, r2, 1   ; depends on r2
		addi r4, r0, 1   ; independent
		halt
	`)
	m, _ := prog.NewMemory(16)
	p, err := New(Config{ThreadSlots: 1, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	issue := map[int64]uint64{}
	p.Observe(&hookObserver{issue: func(_ int, pc int64, cyc uint64) { issue[pc] = cyc }})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if d := issue[1] - issue[0]; d != 3 {
		t.Errorf("dependent issue distance = %d, want 3 (paper §2.1.2)", d)
	}
	if d := issue[2] - issue[1]; d != 3 {
		t.Errorf("chained dependent issue distance = %d, want 3", d)
	}
	if d := issue[3] - issue[2]; d != 1 {
		t.Errorf("independent issue distance = %d, want 1", d)
	}
}

// TestLoadUseDistance checks the 4-cycle load result latency: a consumer
// decodes 5 cycles after the load.
func TestLoadUseDistance(t *testing.T) {
	prog := asm.MustAssemble(`
		lw   r1, 100(r0)
		addi r2, r1, 1
		halt
	`)
	m, _ := prog.NewMemory(256)
	p, _ := New(Config{ThreadSlots: 1, StandbyStations: true}, prog.Text, m)
	issue := map[int64]uint64{}
	p.Observe(&hookObserver{issue: func(_ int, pc int64, cyc uint64) { issue[pc] = cyc }})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if d := issue[1] - issue[0]; d != 5 {
		t.Errorf("load-use issue distance = %d, want 5 (result latency 4 + schedule)", d)
	}
}

// TestBranchDelay pins the 5-cycle branch delay of the multithreaded
// pipeline (§2.1.2): the instruction after a branch decodes 5 cycles later.
func TestBranchDelay(t *testing.T) {
	prog := asm.MustAssemble(`
		addi r1, r0, 1
		j    next        ; taken branch
	next:	addi r2, r0, 2
		beqz r0, taken   ; taken conditional
	taken:	addi r3, r0, 3
		bnez r0, never   ; not-taken conditional
		addi r4, r0, 4
		halt
	never:	halt
	`)
	m, _ := prog.NewMemory(16)
	p, _ := New(Config{ThreadSlots: 1, StandbyStations: true}, prog.Text, m)
	issue := map[int64]uint64{}
	p.Observe(&hookObserver{issue: func(_ int, pc int64, cyc uint64) { issue[pc] = cyc }})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if d := issue[2] - issue[1]; d != 5 {
		t.Errorf("taken jump delay = %d, want 5", d)
	}
	if d := issue[4] - issue[3]; d != 5 {
		t.Errorf("taken conditional delay = %d, want 5", d)
	}
	if d := issue[6] - issue[5]; d != 5 {
		t.Errorf("not-taken conditional delay = %d, want 5 (no branch prediction)", d)
	}
}

// TestIssueRateOneInstrPerCycle: straight-line independent code issues one
// instruction per cycle per thread slot.
func TestIssueRateOneInstrPerCycle(t *testing.T) {
	src := ""
	for i := 1; i <= 20; i++ {
		src += "addi r" + itoa(i%8+1) + ", r0, 1\n"
	}
	// avoid WAW interlocks: use 8 rotating dests, each reused after 8
	// cycles, beyond the 3-cycle ALU shadow.
	src += "halt\n"
	prog := asm.MustAssemble(src)
	m, _ := prog.NewMemory(16)
	p, _ := New(Config{ThreadSlots: 1, StandbyStations: true}, prog.Text, m)
	var first, last uint64
	n := 0
	p.Observe(&hookObserver{issue: func(_ int, pc int64, cyc uint64) {
		if n == 0 {
			first = cyc
		}
		last = cyc
		n++
	}})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 21 {
		t.Fatalf("issued %d instructions, want 21", n)
	}
	if got := last - first; got != 20 {
		t.Errorf("issue span = %d cycles for 21 instructions, want 20 (1 IPC)", got)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestStandbyStationOutOfOrder reproduces the paper's example: while a
// shift waits in a standby station (shifter occupied by another thread), a
// succeeding add from the same thread reaches the ALU.
func TestStandbyStationOutOfOrder(t *testing.T) {
	// Thread 1 saturates the shifter; thread 0 issues shift then add.
	src := `
		tid  r1
		bnez r1, hog
		slli r2, r1, 3    ; will conflict with the hog thread's shifts
		addi r3, r0, 7    ; independent add, can overtake via standby
		halt
	hog:	slli r4, r1, 1
		slli r5, r1, 2
		slli r6, r1, 3
		slli r7, r1, 4
		halt
	`
	prog := asm.MustAssemble(src)
	m, _ := prog.NewMemory(16)

	run := func(standby bool) (addCycle, shiftCycle uint64) {
		p, _ := New(Config{ThreadSlots: 2, StandbyStations: standby}, prog.Text, m)
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
		sel := map[int64]uint64{}
		p.Observe(&hookObserver{issue: func(slot int, pc int64, cyc uint64) {
			if slot == 0 {
				sel[pc] = cyc
			}
		}})
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return sel[3], sel[2]
	}
	addWith, _ := run(true)
	addWithout, _ := run(false)
	if addWith > addWithout {
		t.Errorf("standby stations made the add slower (%d > %d)", addWith, addWithout)
	}
}

func TestForkTidHalt(t *testing.T) {
	p, res := runSrc(t, Config{ThreadSlots: 4, StandbyStations: true}, `
		.data
		.org 50
	out:	.space 4
		.text
		ffork
		tid  r1
		addi r2, r1, 100
		sw   r2, out(r1)
		halt
	`)
	for i := int64(0); i < 4; i++ {
		if got := p.Mem().IntAt(50 + i); got != 100+i {
			t.Errorf("thread %d wrote %d, want %d", i, got, 100+i)
		}
	}
	if res.Forks != 3 {
		t.Errorf("forks = %d, want 3", res.Forks)
	}
}

func TestQueueRegistersRing(t *testing.T) {
	// Thread 0 sends 1,2,3 to thread 1 through the int queue; thread 1
	// accumulates and stores.
	p, _ := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true, QueueDepth: 1}, `
		.data
		.org 60
	out:	.word 0
		.text
		ffork
		tid  r1
		bnez r1, recv
		qen  r29, r30     ; writes to r30 push to successor
		addi r30, r0, 1
		addi r30, r0, 2
		addi r30, r0, 3
		qdis
		halt
	recv:	qen  r29, r30     ; reads of r29 pop from predecessor
		add  r2, r2, r29
		add  r2, r2, r29
		add  r2, r2, r29
		sw   r2, out(r0)
		qdis
		halt
	`)
	if got := p.Mem().IntAt(60); got != 6 {
		t.Errorf("queue sum = %d, want 6", got)
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	// With depth 1 the producer must interlock between pushes; the program
	// still completes and values arrive in order.
	for _, depth := range []int{1, 2, 8} {
		p, _ := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true, QueueDepth: depth}, `
		.data
		.org 80
	out:	.space 8
		.text
		ffork
		tid  r1
		bnez r1, recv
		qen  r28, r29
		addi r29, r0, 11
		addi r29, r0, 22
		addi r29, r0, 33
		addi r29, r0, 44
		halt
	recv:	qen  r28, r29
		addi r3, r0, 0
		mov  r4, r28
		sw   r4, out(r3)
		addi r3, r3, 1
		mov  r4, r28
		sw   r4, out(r3)
		addi r3, r3, 1
		mov  r4, r28
		sw   r4, out(r3)
		addi r3, r3, 1
		mov  r4, r28
		sw   r4, out(r3)
		halt
	`)
		want := []int64{11, 22, 33, 44}
		for i, w := range want {
			if got := p.Mem().IntAt(80 + int64(i)); got != w {
				t.Errorf("depth %d: out[%d] = %d, want %d", depth, i, got, w)
			}
		}
	}
}

func TestKillStopsOtherThreads(t *testing.T) {
	// Thread 0 kills the others, which loop forever otherwise.
	_, res := runSrc(t, Config{ThreadSlots: 4, StandbyStations: true, MaxCycles: 100000}, `
		ffork
		tid  r1
		beqz r1, killer
	spin:	addi r2, r2, 1
		j    spin
	killer:	addi r3, r0, 50
	wait:	addi r3, r3, -1
		bnez r3, wait
		kill
		halt
	`)
	if res.Kills != 3 {
		t.Errorf("kills = %d, want 3", res.Kills)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
		ffork
		tid  r1
		slli r2, r1, 4
		addi r3, r2, 1
		mul  r4, r3, r3
		sw   r4, 100(r1)
		halt
	`
	var cycles []uint64
	for i := 0; i < 3; i++ {
		_, res := runSrc(t, Config{ThreadSlots: 4, StandbyStations: true}, src)
		cycles = append(cycles, res.Cycles)
	}
	if cycles[0] != cycles[1] || cycles[1] != cycles[2] {
		t.Errorf("non-deterministic cycle counts: %v", cycles)
	}
}

func TestLoadStoreUnitIssueLatency(t *testing.T) {
	// Back-to-back independent loads on one load/store unit issue 2 cycles
	// apart (issue latency 2).
	prog := asm.MustAssemble(`
		lw r1, 100(r0)
		lw r2, 101(r0)
		lw r3, 102(r0)
		halt
	`)
	m, _ := prog.NewMemory(256)
	p, _ := New(Config{ThreadSlots: 1, StandbyStations: true, LoadStoreUnits: 1}, prog.Text, m)
	sel := map[int64]uint64{}
	p.Observe(&hookObserver{sel: func(_ int, pc int64, cyc uint64) { sel[pc] = cyc }})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if d := sel[1] - sel[0]; d != 2 {
		t.Errorf("load schedule distance = %d, want 2 (issue latency)", d)
	}
	if d := sel[2] - sel[1]; d != 2 {
		t.Errorf("load schedule distance = %d, want 2 (issue latency)", d)
	}
}

func TestTwoLoadStoreUnits(t *testing.T) {
	// Two threads hammer memory; two load/store units should make it
	// materially faster.
	src := `
		ffork
		tid  r1
		slli r2, r1, 4
	        lw r3, 100(r2)
	        lw r4, 101(r2)
	        lw r5, 102(r2)
	        lw r6, 103(r2)
	        lw r7, 104(r2)
	        lw r8, 105(r2)
	        lw r9, 106(r2)
	        lw r10, 107(r2)
		halt
	`
	_, res1 := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true, LoadStoreUnits: 1}, src)
	_, res2 := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true, LoadStoreUnits: 2}, src)
	if res2.Cycles >= res1.Cycles {
		t.Errorf("two load/store units not faster: %d vs %d cycles", res2.Cycles, res1.Cycles)
	}
}

func TestResultUtilization(t *testing.T) {
	_, res := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, `
		lw r1, 100(r0)
		lw r2, 101(r0)
		lw r3, 102(r0)
		lw r4, 103(r0)
		halt
	`)
	util, inv := res.UnitUtilization(isa.UnitLoadStore)
	if inv != 4 {
		t.Errorf("load/store invocations = %d, want 4", inv)
	}
	if util <= 0 || util > 100 {
		t.Errorf("utilization = %g, out of range", util)
	}
	b := res.BusiestUnit()
	if b.Class != isa.UnitLoadStore {
		t.Errorf("busiest unit = %s, want LoadStore", b.Class)
	}
}

func TestMaxCyclesDeadlockDetection(t *testing.T) {
	// A thread reading an empty queue with no producer deadlocks; Run must
	// return an error rather than hang.
	prog := asm.MustAssemble(`
		qen r29, r30
		add r1, r29, r29
		halt
	`)
	m, _ := prog.NewMemory(16)
	p, _ := New(Config{ThreadSlots: 2, StandbyStations: true, MaxCycles: 5000}, prog.Text, m)
	if _, err := p.Run(); err == nil {
		t.Error("deadlocked program terminated without error")
	}
}

func TestRunTwiceFails(t *testing.T) {
	prog := asm.MustAssemble("halt\n")
	m, _ := prog.NewMemory(16)
	p, _ := New(Config{ThreadSlots: 1}, prog.Text, m)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err == nil {
		t.Error("second Run did not fail")
	}
}

func TestStartThreadValidation(t *testing.T) {
	prog := asm.MustAssemble("halt\n")
	m, _ := prog.NewMemory(16)
	p, _ := New(Config{ThreadSlots: 1, ContextFrames: 2}, prog.Text, m)
	if err := p.StartThread(99); err == nil {
		t.Error("out-of-range start pc accepted")
	}
	if err := p.StartThread(0); err != nil {
		t.Error(err)
	}
	if err := p.StartThread(0); err != nil {
		t.Error(err)
	}
	if err := p.StartThread(0); err == nil {
		t.Error("third thread accepted with 2 context frames")
	}
}

func TestNewValidation(t *testing.T) {
	m := mem.NewMemory(16)
	if _, err := New(Config{}, nil, m); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := New(Config{ThreadSlots: 100}, []isa.Instruction{{Op: isa.HALT}}, m); err == nil {
		t.Error("100 thread slots accepted")
	}
}
