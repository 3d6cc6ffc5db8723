package core

import (
	"fmt"
	"regexp"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// TestSetModeSwitching flips rotation modes mid-run and completes.
func TestSetModeSwitching(t *testing.T) {
	p, _ := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true}, `
		ffork
		setmode 1       ; explicit
		tid  r1
		addi r2, r1, 1
		setmode 0       ; back to implicit
		mul  r3, r2, r2
		sw   r3, 100(r1)
		halt
	`)
	if p.Mem().IntAt(100) != 1 || p.Mem().IntAt(101) != 4 {
		t.Errorf("results wrong: %d, %d", p.Mem().IntAt(100), p.Mem().IntAt(101))
	}
}

// TestQueueSelfLoop: with one thread slot the ring degenerates to a
// self-loop — a thread can pass values to itself.
func TestQueueSelfLoop(t *testing.T) {
	p, _ := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true, QueueDepth: 2}, `
		qen  r20, r21
		addi r21, r0, 7  ; push to self
		addi r21, r0, 8
		mov  r1, r20     ; pop 7
		mov  r2, r20     ; pop 8
		add  r3, r1, r2
		sw   r3, 100(r0)
		halt
	`)
	if got := p.Mem().IntAt(100); got != 15 {
		t.Errorf("self-loop sum = %d, want 15", got)
	}
}

// TestQdisMidStream: after qdis, the formerly mapped registers behave as
// ordinary registers again.
func TestQdisMidStream(t *testing.T) {
	p, _ := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, `
		qen  r20, r21
		addi r21, r0, 42 ; goes into the self-loop queue
		qdis
		addi r21, r0, 5  ; plain register write now
		addi r20, r0, 6
		add  r1, r20, r21
		sw   r1, 100(r0)
		halt
	`)
	if got := p.Mem().IntAt(100); got != 11 {
		t.Errorf("post-qdis sum = %d, want 11", got)
	}
}

// TestKillClearsQueues: a killed ring leaves no stale queue data for a
// subsequent fork.
func TestKillClearsQueues(t *testing.T) {
	p, _ := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true, MaxCycles: 200000}, `
		ffork
		tid  r1
		bnez r1, victim
	; thread 0: wait for the stale push, kill the ring, fork a fresh
	; producer, and pop — the pop must yield the fresh value, not the
	; stale one.
		qen  r20, r21
		addi r3, r0, 40
	w1:	addi r3, r3, -1
		bnez r3, w1
		kill               ; clears all queue registers
		ffork              ; fresh producer on slot 1
		tid  r1
		bnez r1, producer
		mov  r5, r20       ; pop: must be 7 (stale 99 was cleared)
		sw   r5, 100(r0)
		halt
	producer:
		qen  r20, r21
		addi r21, r0, 7    ; slot 1 pushes toward slot 0
		halt
	victim:
		qen  r20, r21
		addi r21, r0, 99   ; stale value toward slot 0
	spin:	addi r4, r4, 1
		j    spin
	`)
	if got := p.Mem().IntAt(100); got != 7 {
		t.Errorf("pop after kill = %d, want 7 (stale queue entry survived the kill)", got)
	}
}

// TestForkReusesDoneFrames: after a thread halts, its slot's frame can be
// re-forked.
func TestForkReusesDoneFrames(t *testing.T) {
	p, res := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true}, `
		ffork              ; claims slot 1 (frame 1)
		tid  r1
		bnez r1, second
		addi r3, r0, 90
	w:	addi r3, r3, -1
		bnez r3, w         ; wait for the forked thread to halt
		ffork              ; re-claims slot 1 with a fresh frame
		tid  r1
		bnez r1, second    ; the re-forked thread goes to work too
		halt
	second:
		tid  r2
		lw   r4, 100(r2)
		addi r4, r4, 1
		sw   r4, 100(r2)   ; increments once per life
		halt
	`)
	if res.Forks != 2 {
		t.Errorf("forks = %d, want 2 (frame reused)", res.Forks)
	}
	if got := p.Mem().IntAt(101); got != 2 {
		t.Errorf("slot-1 thread ran %d times, want 2", got)
	}
}

// TestRepeatedContextSwitches: one slot cycles through four frames, each
// trapping twice on remote loads.
func TestRepeatedContextSwitches(t *testing.T) {
	prog := mustAsm(t, `
		tid  r1
		slli r2, r1, 3
		addi r3, r2, 1000
		lw   r4, 0(r3)      ; trap 1
		lw   r5, 4(r3)      ; trap 2 (different line)
		add  r6, r4, r5
		sw   r6, 100(r1)
		halt
	`)
	m := mem.NewMemoryWithRemote(2048, 1000, 150)
	for i := int64(1000); i < 1100; i++ {
		m.SetInt(i, i)
	}
	p, err := New(Config{ThreadSlots: 1, ContextFrames: 4, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches < 8 {
		t.Errorf("switches = %d, want >= 8 (two traps per thread)", res.Switches)
	}
	for i := int64(0); i < 4; i++ {
		base := 1000 + 8*i
		if got := m.IntAt(100 + i); got != base+(base+4) {
			t.Errorf("thread %d sum = %d, want %d", i, got, base+base+4)
		}
	}
}

// TestSuperscalarWithIssueCap: a (D=4, cap=1) machine behaves like a
// single-issue machine and still computes correctly.
func TestSuperscalarWithIssueCap(t *testing.T) {
	src := `
		addi r1, r0, 3
		slli r2, r1, 2
		addi r3, r0, 5
		slli r4, r3, 1
		add  r5, r2, r4
		sw   r5, 100(r0)
		halt
	`
	pWide, resWide := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true, IssueWidth: 4}, src)
	pCap, resCap := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true, IssueWidth: 4, MaxIssuePerCycle: 1}, src)
	if pWide.Mem().IntAt(100) != 22 || pCap.Mem().IntAt(100) != 22 {
		t.Fatalf("wrong results: %d, %d", pWide.Mem().IntAt(100), pCap.Mem().IntAt(100))
	}
	if resCap.Cycles < resWide.Cycles {
		t.Errorf("capped machine faster than uncapped: %d < %d", resCap.Cycles, resWide.Cycles)
	}
}

// TestNopStream: a long run of NOPs flows through at one per cycle and
// terminates.
func TestNopStream(t *testing.T) {
	src := ""
	for i := 0; i < 50; i++ {
		src += "\tnop\n"
	}
	src += "\thalt\n"
	_, res := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, src)
	if res.Instructions != 51 {
		t.Errorf("instructions = %d, want 51", res.Instructions)
	}
	if res.Cycles > 70 {
		t.Errorf("cycles = %d for 51 nops, want about 55", res.Cycles)
	}
}

// TestEightLoadStoreUnits: the ablation allowance above the paper's two.
func TestEightLoadStoreUnits(t *testing.T) {
	src := `
		lw r1, 100(r0)
		lw r2, 101(r0)
		lw r3, 102(r0)
		lw r4, 103(r0)
		halt
	`
	_, res2 := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true, LoadStoreUnits: 2}, src)
	_, res4 := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true, LoadStoreUnits: 4}, src)
	if res4.Cycles > res2.Cycles {
		t.Errorf("more load/store units slower: %d > %d", res4.Cycles, res2.Cycles)
	}
	if len(res4.Units) != 6+4 {
		t.Errorf("unit stats count = %d, want 10", len(res4.Units))
	}
}

// TestRuntimeErrorsSurface: functional faults become Run errors, not
// panics, and identify the slot.
func TestRuntimeErrorsSurface(t *testing.T) {
	cases := map[string]string{
		"div by zero": `
			li  r1, 5
			div r2, r1, r0
			halt`,
		"bad address": `
			li  r1, -50
			lw  r2, 0(r1)
			halt`,
		"store out of range": `
			li  r1, 8000
			slli r1, r1, 8
			sw  r1, 0(r1)
			halt`,
	}
	for name, src := range cases {
		prog := mustAsm(t, src)
		m, _ := prog.NewMemory(64)
		p, err := New(Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err == nil {
			t.Errorf("%s: Run succeeded, want error", name)
		}
	}
}

// TestIssueCapWithManySlots: the single-issue cap arbitrates fairly enough
// that all threads finish (rotation prevents starvation).
func TestIssueCapWithManySlots(t *testing.T) {
	src := `
		ffork
		tid  r1
		addi r2, r1, 1
		mul  r3, r2, r2
		sw   r3, 100(r1)
		halt
	`
	p, _ := runSrc(t, Config{ThreadSlots: 8, StandbyStations: true, MaxIssuePerCycle: 1}, src)
	for i := int64(0); i < 8; i++ {
		want := (i + 1) * (i + 1)
		if got := p.Mem().IntAt(100 + i); got != want {
			t.Errorf("thread %d = %d, want %d", i, got, want)
		}
	}
}

// TestTraceDrivenWithCapAndWidth: trace replay composes with the
// superscalar window and the issue cap.
func TestTraceDrivenWithCapAndWidth(t *testing.T) {
	in := []TraceInput{
		{Ins: isa.Instruction{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R0, Rs2: isa.NoReg, Imm: 1}},
		{Ins: isa.Instruction{Op: isa.SLLI, Rd: isa.R2, Rs1: isa.R0, Rs2: isa.NoReg, Imm: 2}},
		{Ins: isa.Instruction{Op: isa.ADDI, Rd: isa.R3, Rs1: isa.R0, Rs2: isa.NoReg, Imm: 3}},
		{Ins: isa.Instruction{Op: isa.HALT, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg}},
	}
	for _, cfg := range []Config{
		{ThreadSlots: 2, StandbyStations: true, IssueWidth: 2},
		{ThreadSlots: 2, StandbyStations: true, MaxIssuePerCycle: 1},
	} {
		p, err := NewTraceDriven(cfg, [][]TraceInput{in, in})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Instructions != 8 {
			t.Errorf("cfg %+v: instructions = %d, want 8", cfg, res.Instructions)
		}
	}
}

// TestKillReachesWaitingAndReadyFrames: kill stops threads that are
// switched out (waiting on remote data) or queued (ready, unbound).
func TestKillReachesWaitingAndReadyFrames(t *testing.T) {
	prog := mustAsm(t, `
		tid  r1
		beqz r1, killer
		lw   r2, 1000(r0)    ; remote: waits or traps
		sw   r2, 100(r1)
		halt
	killer:	addi r3, r0, 60
	w:	addi r3, r3, -1
		bnez r3, w
		kill
		halt
	`)
	m := mem.NewMemoryWithRemote(2048, 1000, 5000)
	// One slot, four frames: thread 0 is the killer; threads 1..3 trap on
	// the remote load and wait; one may still be queued as ready.
	p, err := New(Config{ThreadSlots: 2, ContextFrames: 4, StandbyStations: true, MaxCycles: 100000}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 {
		t.Error("kill reached no threads")
	}
	// The run must terminate well before the 5000-cycle remote waits
	// would have allowed the victims to resume.
	if res.Cycles > 4000 {
		t.Errorf("cycles = %d; kill did not cut the remote waits short", res.Cycles)
	}
}

func TestConfigValidation(t *testing.T) {
	m := mem.NewMemory(4)
	prog := mustAsm(t, "halt\n").Text
	bad := []Config{
		{ThreadSlots: 1, LoadStoreUnits: 9},
		{ThreadSlots: 1, StandbyDepth: 17},
		{ThreadSlots: 1, IssueWidth: 17},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, prog, m); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestStatZeroDivisors(t *testing.T) {
	var u UnitStat
	if u.Utilization(0) != 0 {
		t.Error("Utilization(0) != 0")
	}
	var r Result
	if r.IPC() != 0 {
		t.Error("IPC of empty result != 0")
	}
}

// TestFetchUnitsSweep: a branchy two-thread workload gains from a second
// fetch unit, and results never change.
func TestFetchUnitsSweep(t *testing.T) {
	src := `
		ffork
		tid  r1
		li   r2, 40
	loop:	andi r3, r2, 1
		bnez r3, odd
		addi r4, r4, 1
		j    nxt
	odd:	addi r5, r5, 1
	nxt:	addi r2, r2, -1
		bnez r2, loop
		add  r6, r4, r5
		sw   r6, 100(r1)
		halt
	`
	var prev uint64
	for i, units := range []int{1, 2, 4} {
		prog := mustAsm(t, src)
		m, _ := prog.NewMemory(256)
		p, err := New(Config{ThreadSlots: 4, StandbyStations: true, FetchUnits: units}, prog.Text, m)
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
		for s := int64(0); s < 4; s++ {
			if got := m.IntAt(100 + s); got != 40 {
				t.Fatalf("units=%d: thread %d sum = %d, want 40", units, s, got)
			}
		}
		// Allow small phase-alignment noise; more units must never be
		// substantially slower.
		if i > 0 && float64(res.Cycles) > float64(prev)*1.03 {
			t.Errorf("%d fetch units slower than fewer: %d > %d", units, res.Cycles, prev)
		}
		if res.Cycles < prev {
			prev = res.Cycles
		}
		if i == 0 {
			prev = res.Cycles
		}
	}
}

// TestPCOutsideStreamFails: a thread whose pc leaves its instruction
// stream, by a jump or by running past the last instruction, fails at once
// with an error naming the slot and the pc, on one slot, on four slots
// with standby stations and at issue width 2. A replayed trace with no
// final HALT fails the same way. MaxCycles 100 turns a thread left
// waiting for instructions into a different error.
func TestPCOutsideStreamFails(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"1slot", Config{ThreadSlots: 1}},
		{"4slots", Config{ThreadSlots: 4, StandbyStations: true}},
		{"width2", Config{ThreadSlots: 1, IssueWidth: 2}},
	}
	progs := []struct {
		name, src string
		want      *regexp.Regexp
	}{
		{"negative-jump", "li r1, -8\njr r1\nhalt\n", regexp.MustCompile(`^core: slot \d: pc -8 outside program of 3 instructions$`)},
		{"jump-past-end", "li r1, 100\njr r1\nhalt\n", regexp.MustCompile(`^core: slot \d: pc 100 outside program of 3 instructions$`)},
		{"no-halt", "li r1, 1\naddi r1, r1, 1\n", regexp.MustCompile(`^core: slot \d: pc 2 outside program of 2 instructions$`)},
	}
	rec := recordInputs(t, "li r1, 3\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n")
	noHalt := rec[:len(rec)-1]
	for _, c := range cfgs {
		cfg := c.cfg
		cfg.MaxCycles = 100
		for _, pr := range progs {
			t.Run(c.name+"/"+pr.name, func(t *testing.T) {
				prog := asm.MustAssemble(pr.src)
				m, err := prog.NewMemory(64)
				if err != nil {
					t.Fatal(err)
				}
				p, err := New(cfg, prog.Text, m)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cfg.ThreadSlots; i++ {
					if err := p.StartThread(0); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := p.Run(); err == nil || !pr.want.MatchString(err.Error()) {
					t.Errorf("err = %v, want %s", err, pr.want)
				}
			})
		}
		t.Run(c.name+"/trace-no-halt", func(t *testing.T) {
			traces := make([][]TraceInput, cfg.ThreadSlots)
			for i := range traces {
				traces[i] = noHalt
			}
			p, err := NewTraceDriven(cfg, traces)
			if err != nil {
				t.Fatal(err)
			}
			want := regexp.MustCompile(fmt.Sprintf(`^core: slot \d: pc %d outside trace of %d instructions$`, len(noHalt), len(noHalt)))
			if _, err := p.Run(); err == nil || !want.MatchString(err.Error()) {
				t.Errorf("err = %v, want %s", err, want)
			}
		})
	}
}

// TestNegativeAddressFiniteDCache: a load or store to a negative address
// fails with the memory's range error whether the data cache is perfect
// or finite; the finite cache model is never asked about the address.
func TestNegativeAddressFiniteDCache(t *testing.T) {
	const want = "core: slot 0: exec: pc 1: mem: address -5 out of range [0, 64)"
	for _, src := range []string{"li r1, -5\nlw r2, 0(r1)\nhalt\n", "li r1, -5\nsw r2, 0(r1)\nhalt\n"} {
		for _, dc := range []mem.CacheConfig{{}, {Lines: 8}} {
			prog := asm.MustAssemble(src)
			m, err := prog.NewMemory(64)
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(Config{DCache: dc}, prog.Text, m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(); err == nil || err.Error() != want {
				t.Errorf("%q with DCache %+v: err = %v, want %s", src, dc, err, want)
			}
		}
	}
}
