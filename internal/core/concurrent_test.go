package core

import (
	"strconv"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// TestConcurrentMultithreadingSwitch: with more context frames than thread
// slots, a remote-memory load triggers a data-absence trap and the slot
// switches to another ready thread, hiding the remote latency.
func TestConcurrentMultithreadingSwitch(t *testing.T) {
	// Two threads on one slot; each loads remote data then does local work.
	src := `
		.equ REMOTE 1000
		tid  r1
		slli r2, r1, 2
		addi r3, r2, REMOTE
		lw   r4, 0(r3)        ; remote load: data absence trap
		addi r5, r4, 1
		sw   r5, 100(r1)
		halt
	`
	prog := asm.MustAssemble(src)
	run := func(frames int) (Result, *mem.Memory) {
		m := mem.NewMemoryWithRemote(2048, 1000, 200)
		if err := prog.InitMemory(m); err != nil {
			t.Fatal(err)
		}
		m.SetInt(1000, 70)
		m.SetInt(1004, 80)
		p, err := New(Config{ThreadSlots: 1, ContextFrames: frames, StandbyStations: true}, prog.Text, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}

	// Concurrent multithreading on: 2 frames, 1 slot.
	resC, mm := run(2)
	if got := mm.IntAt(100); got != 71 {
		t.Errorf("thread 0 result = %d, want 71", got)
	}
	if got := mm.IntAt(101); got != 81 {
		t.Errorf("thread 1 result = %d, want 81", got)
	}
	if resC.Switches == 0 {
		t.Error("no context switches with spare context frames")
	}
}

// TestContextSwitchHidesLatency: two threads with traps overlap their
// remote waits, finishing sooner than the same work run back to back.
func TestContextSwitchHidesLatency(t *testing.T) {
	src := `
		tid  r1
		slli r2, r1, 3
		addi r3, r2, 1000
		lw   r4, 0(r3)
		lw   r5, 1(r3)
		lw   r6, 2(r3)
		add  r7, r4, r5
		add  r7, r7, r6
		sw   r7, 100(r1)
		halt
	`
	prog := asm.MustAssemble(src)
	build := func(frames int, nThreads int) *Processor {
		m := mem.NewMemoryWithRemote(2048, 1000, 300)
		for i := int64(1000); i < 1040; i++ {
			m.SetInt(i, i)
		}
		p, err := New(Config{ThreadSlots: 1, ContextFrames: frames, StandbyStations: true}, prog.Text, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nThreads; i++ {
			if err := p.StartThread(0); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	pSwitch := build(4, 4)
	resSwitch, err := pSwitch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resSwitch.Switches == 0 {
		t.Fatal("expected context switches")
	}
	// Baseline: one frame per... run threads serially through one frame by
	// running four separate single-thread simulations.
	var serial uint64
	for i := 0; i < 4; i++ {
		p := build(1, 1)
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		serial += res.Cycles
	}
	if resSwitch.Cycles >= serial {
		t.Errorf("concurrent multithreading did not hide latency: %d >= %d cycles",
			resSwitch.Cycles, serial)
	}
	// Results must still be correct.
	for i := int64(0); i < 4; i++ {
		base := 1000 + 8*i
		want := base + (base + 1) + (base + 2)
		if got := pSwitch.Mem().IntAt(100 + i); got != want {
			t.Errorf("thread %d result = %d, want %d", i, got, want)
		}
	}
}

// TestExplicitRotationSuppressesSwitch: in explicit-rotation mode a remote
// load must not cause a context switch (§2.3.1).
func TestExplicitRotationSuppressesSwitch(t *testing.T) {
	src := `
		lw   r4, 1000(r0)
		addi r5, r4, 1
		halt
	`
	prog := asm.MustAssemble(src)
	m := mem.NewMemoryWithRemote(2048, 1000, 100)
	m.SetInt(1000, 7)
	p, err := New(Config{ThreadSlots: 1, ContextFrames: 2, StandbyStations: true, ExplicitRotation: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Errorf("explicit mode took %d context switches, want 0", res.Switches)
	}
	if res.Cycles < 100 {
		t.Errorf("remote load should still pay the latency; cycles = %d", res.Cycles)
	}
}

// TestChgpriRotation: explicit-rotation mode rotates on chgpri and a thread
// waiting for the highest priority proceeds afterwards.
func TestChgpriRotation(t *testing.T) {
	// Both threads do a priority store; thread 1 must wait until thread 0
	// rotates priority to it.
	src := `
		setmode 1
		ffork
		tid  r1
		bnez r1, second
		swp  r1, 200(r0)     ; thread 0 has priority initially
		chgpri               ; hand priority to thread 1
	done0:	halt
	second:	swp  r1, 201(r0)     ; waits for priority
		halt
	`
	p, _ := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true, ExplicitRotation: false}, src)
	if got := p.Mem().IntAt(200); got != 0 {
		t.Errorf("mem[200] = %d, want 0", got)
	}
	if got := p.Mem().IntAt(201); got != 1 {
		t.Errorf("mem[201] = %d, want 1", got)
	}
}

// TestImplicitRotationAvoidsStarvation: with fixed priorities a saturating
// high-priority thread could starve others; rotation bounds the wait.
func TestImplicitRotationAvoidsStarvation(t *testing.T) {
	// Both threads issue long chains of loads through one load/store unit.
	src := `
		tid  r1
		slli r2, r1, 5
	`
	for i := 0; i < 16; i++ {
		src += "\tlw r3, " + itoa(100+i) + "(r2)\n"
	}
	src += "\tsw r1, 300(r1)\n\thalt\n"
	prog := asm.MustAssemble(src)
	m, _ := prog.NewMemory(512)
	p, _ := New(Config{ThreadSlots: 2, StandbyStations: true, RotationInterval: 8}, prog.Text, m)
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem().IntAt(300) != 0 || p.Mem().IntAt(301) != 1 {
		t.Error("one thread did not finish")
	}
	// Both slots should make comparable progress: neither issued count can
	// be zero and the later finisher shouldn't be starved indefinitely.
	if res.Slots[0].Issued == 0 || res.Slots[1].Issued == 0 {
		t.Errorf("starvation: issued = %d/%d", res.Slots[0].Issued, res.Slots[1].Issued)
	}
}

// TestCoreMatchesInterpreter: the full multithreaded machine with one slot
// computes the same results as the functional interpreter.
func TestCoreMatchesInterpreter(t *testing.T) {
	src := `
		.data
		.org 100
	vals:	.float 1.5, 2.25, 3.125, -4.0
	ints:	.word 3, 5, -7, 11
		.text
		li   r1, 0
		flw  f1, vals+0
		flw  f2, vals+1
		flw  f3, vals+2
		fmul f4, f1, f2
		fadd f5, f4, f3
		fsqrt f6, f5
		fsw  f6, 120(r0)
		lw   r2, ints+0
		lw   r3, ints+1
		mul  r4, r2, r3
		sw   r4, 121(r0)
	loop:	addi r1, r1, 1
		slti r5, r1, 50
		bnez r5, loop
		sw   r1, 122(r0)
		halt
	`
	prog := asm.MustAssemble(src)

	mi, _ := prog.NewMemory(256)
	ip := exec.NewInterp(prog.Text, mi)
	if err := ip.Run(); err != nil {
		t.Fatal(err)
	}

	mc, _ := prog.NewMemory(256)
	p, _ := New(Config{ThreadSlots: 1, StandbyStations: true}, prog.Text, mc)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}

	for _, addr := range []int64{120, 121, 122} {
		a, _ := mi.Load(addr)
		b, _ := mc.Load(addr)
		if a != b {
			t.Errorf("mem[%d]: interp %#x != core %#x", addr, a, b)
		}
	}
}

// TestSuperscalarIssueWidth: a (D,1) thread slot issues independent
// instructions in parallel, beating D=1 on ILP-rich code, and computes the
// same answer.
func TestSuperscalarIssueWidth(t *testing.T) {
	// Independent work spread across different functional units, so a
	// wider slot can issue to the ALU and the shifter in the same cycle.
	src := `
		addi r20, r0, 1
	`
	for i := 0; i < 12; i++ {
		src += "\taddi r" + itoa(1+i%4) + ", r0, " + itoa(i) + "\n"
		src += "\tslli r" + itoa(5+i%4) + ", r20, " + itoa(i%8) + "\n"
	}
	src += `
		add  r10, r1, r5
		sw   r10, 100(r0)
		halt
	`
	want := int64(11 + (1 << 3)) // r1 = 11 (i=11 -> r4? see rotation), checked below
	_ = want
	var cyc [3]uint64
	var results [3]int64
	for i, width := range []int{1, 2, 4} {
		p, res := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true, IssueWidth: width}, src)
		results[i] = p.Mem().IntAt(100)
		cyc[i] = res.Cycles
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("issue width changed results: %v", results)
	}
	if cyc[1] >= cyc[0] {
		t.Errorf("width 2 not faster than width 1: %d >= %d", cyc[1], cyc[0])
	}
	if cyc[2] > cyc[1] {
		t.Errorf("width 4 slower than width 2: %d > %d", cyc[2], cyc[1])
	}
}

// TestSuperscalarRespectsDependences: WAR and RAW within the window must
// not change results.
func TestSuperscalarRespectsDependences(t *testing.T) {
	src := `
		addi r1, r0, 5
		addi r2, r1, 10    ; RAW on r1
		addi r1, r0, 99    ; WAR against previous read of r1
		add  r3, r1, r2    ; 99 + 15
		sw   r3, 100(r0)
		sw   r2, 101(r0)
		halt
	`
	for _, width := range []int{1, 2, 4, 8} {
		p, _ := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true, IssueWidth: width}, src)
		if got := p.Mem().IntAt(100); got != 114 {
			t.Errorf("width %d: r3 = %d, want 114", width, got)
		}
		if got := p.Mem().IntAt(101); got != 15 {
			t.Errorf("width %d: r2 = %d, want 15", width, got)
		}
	}
}

// TestPrivateICache: per-slot fetch units must not change results and
// should not be slower than the shared fetch unit.
func TestPrivateICache(t *testing.T) {
	src := `
		ffork
		tid  r1
		addi r2, r1, 1
		mul  r3, r2, r2
		sw   r3, 100(r1)
		halt
	`
	pShared, resShared := runSrc(t, Config{ThreadSlots: 8, StandbyStations: true}, src)
	pPrivate, resPrivate := runSrc(t, Config{ThreadSlots: 8, StandbyStations: true, PrivateICache: true}, src)
	for i := int64(0); i < 8; i++ {
		want := (i + 1) * (i + 1)
		if got := pShared.Mem().IntAt(100 + i); got != want {
			t.Errorf("shared: thread %d = %d, want %d", i, got, want)
		}
		if got := pPrivate.Mem().IntAt(100 + i); got != want {
			t.Errorf("private: thread %d = %d, want %d", i, got, want)
		}
	}
	if resPrivate.Cycles > resShared.Cycles {
		t.Errorf("private icache slower than shared: %d > %d", resPrivate.Cycles, resShared.Cycles)
	}
}

// TestFSWPAndFPQueue exercise FP queue registers and FP priority stores.
func TestFPQueueRegisters(t *testing.T) {
	p, _ := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true}, `
		.data
		.org 90
	seed:	.float 2.0
		.text
		ffork
		tid  r1
		bnez r1, recv
		qenf f29, f30
		flw  f1, seed
		fmul f30, f1, f1     ; send 4.0
		halt
	recv:	qenf f29, f30
		fmov f2, f29
		fsw  f2, 91(r0)
		halt
	`)
	if got := p.Mem().FloatAt(91); got != 4.0 {
		t.Errorf("fp queue transfer = %g, want 4.0", got)
	}
}

func TestRotationIntervalConfig(t *testing.T) {
	// Sanity: different rotation intervals still complete with identical
	// architectural results.
	src := `
		ffork
		tid  r1
		addi r2, r1, 3
		mul  r3, r2, r2
		sw   r3, 100(r1)
		halt
	`
	var want []int64
	for i, ivl := range []int{1, 2, 8, 64, 256} {
		p, _ := runSrc(t, Config{ThreadSlots: 4, StandbyStations: true, RotationInterval: ivl}, src)
		var got []int64
		for k := int64(0); k < 4; k++ {
			got = append(got, p.Mem().IntAt(100+k))
		}
		if i == 0 {
			want = got
			continue
		}
		for k := range got {
			if got[k] != want[k] {
				t.Errorf("interval %d changed results: %v vs %v", ivl, got, want)
				break
			}
		}
	}
}

func TestFrameAccessors(t *testing.T) {
	prog := asm.MustAssemble("tid r1\nhalt\n")
	m, _ := prog.NewMemory(16)
	p, _ := New(Config{ThreadSlots: 1}, prog.Text, m)
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	regs, tid := p.Frame(0)
	if tid != 0 {
		t.Errorf("tid = %d, want 0", tid)
	}
	if got := regs.ReadInt(isa.R1); got != 0 {
		t.Errorf("r1 = %d, want 0", got)
	}
	if p.Cycle() == 0 {
		t.Error("cycle = 0 after a run")
	}
}

// TestChgpriSkipsHaltedSlots: in explicit mode, a chgpri (or priority
// store) must not deadlock behind a finished thread that still formally
// holds the highest priority.
func TestChgpriSkipsHaltedSlots(t *testing.T) {
	// Thread 0 (highest priority) halts immediately; thread 1 then needs
	// the "highest active" priority for its swp and chgpri.
	p, _ := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true, ExplicitRotation: true, MaxCycles: 50000}, `
		ffork
		tid  r1
		bnez r1, worker
		halt               ; thread 0 exits without rotating
	worker:	addi r2, r0, 7
		swp  r2, 100(r0)   ; needs highest active priority
		chgpri
		addi r3, r0, 8
		swp  r3, 101(r0)
		halt
	`)
	if got := p.Mem().IntAt(100); got != 7 {
		t.Errorf("first swp = %d, want 7", got)
	}
	if got := p.Mem().IntAt(101); got != 8 {
		t.Errorf("second swp = %d, want 8", got)
	}
}

// TestRotationChangesArbitration: with two slots contending for one
// load/store unit, priority rotation alternates which slot wins ties, so
// both make progress at similar rates.
func TestRotationChangesArbitration(t *testing.T) {
	src := `
		tid  r1
		slli r2, r1, 6
	`
	for i := 0; i < 24; i++ {
		src += "\tlw r3, " + strconv.Itoa(100+i) + "(r2)\n"
	}
	src += "\thalt\n"
	prog := mustAsm(t, src)
	m, _ := prog.NewMemory(512)
	p, _ := New(Config{ThreadSlots: 2, StandbyStations: true, LoadStoreUnits: 1, RotationInterval: 4}, prog.Text, m)
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	wins := [2]int{}
	p.Observe(&hookObserver{sel: func(slot int, pc int64, _ uint64) { wins[slot]++ }})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// Both slots execute the same number of loads overall; the interesting
	// property is neither starves while contending.
	if wins[0] == 0 || wins[1] == 0 {
		t.Fatalf("a slot was starved: %v", wins)
	}
	ratio := float64(wins[0]) / float64(wins[1])
	if ratio < 0.7 || ratio > 1.43 {
		t.Errorf("selection counts unbalanced: %v", wins)
	}
}
