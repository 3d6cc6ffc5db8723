package core

import (
	"math/rand"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// genStructuredProgram emits a random but always-terminating program:
// a sequence of blocks, each a run of random arithmetic/memory
// instructions optionally wrapped in a counted loop, ending with a store
// of every live register and halt. Register r15 is reserved as the loop
// counter; memory 64..127 is the data area.
func genStructuredProgram(rng *rand.Rand) []isa.Instruction {
	var prog []isa.Instruction
	emit := func(in isa.Instruction) { prog = append(prog, in) }
	reg := func() isa.Reg { return isa.IntReg(rng.Intn(12) + 1) }
	freg := func() isa.Reg { return isa.FPReg(rng.Intn(8) + 1) }

	// Seed registers.
	for r := 1; r <= 12; r++ {
		emit(isa.Instruction{Op: isa.ADDI, Rd: isa.IntReg(r), Rs1: isa.R0, Rs2: isa.NoReg, Imm: int32(rng.Intn(200) - 100)})
	}

	blocks := 2 + rng.Intn(4)
	for b := 0; b < blocks; b++ {
		loop := rng.Intn(2) == 0
		var loopStart int
		if loop {
			emit(isa.Instruction{Op: isa.ADDI, Rd: isa.R15, Rs1: isa.R0, Rs2: isa.NoReg, Imm: int32(2 + rng.Intn(6))})
			loopStart = len(prog)
		}
		body := 3 + rng.Intn(8)
		for i := 0; i < body; i++ {
			switch rng.Intn(8) {
			case 0:
				emit(isa.Instruction{Op: isa.LW, Rd: reg(), Rs1: isa.R0, Rs2: isa.NoReg, Imm: int32(64 + rng.Intn(32))})
			case 1:
				emit(isa.Instruction{Op: isa.SW, Rs1: isa.R0, Rs2: reg(), Rd: isa.NoReg, Imm: int32(64 + rng.Intn(32))})
			case 2:
				emit(isa.Instruction{Op: isa.MUL, Rd: reg(), Rs1: reg(), Rs2: reg()})
			case 3:
				emit(isa.Instruction{Op: isa.SLLI, Rd: reg(), Rs1: reg(), Rs2: isa.NoReg, Imm: int32(rng.Intn(8))})
			case 4:
				emit(isa.Instruction{Op: isa.ITOF, Rd: freg(), Rs1: reg(), Rs2: isa.NoReg})
			case 5:
				emit(isa.Instruction{Op: isa.FADD, Rd: freg(), Rs1: freg(), Rs2: freg()})
			case 6:
				emit(isa.Instruction{Op: isa.FTOI, Rd: reg(), Rs1: freg(), Rs2: isa.NoReg})
			default:
				emit(isa.Instruction{Op: isa.ADD, Rd: reg(), Rs1: reg(), Rs2: reg()})
			}
		}
		if loop {
			emit(isa.Instruction{Op: isa.ADDI, Rd: isa.R15, Rs1: isa.R15, Rs2: isa.NoReg, Imm: -1})
			emit(isa.Instruction{Op: isa.BNEZ, Rs1: isa.R15, Rd: isa.NoReg, Rs2: isa.NoReg, Imm: int32(loopStart)})
		}
	}
	// Publish all integer registers.
	for r := 1; r <= 12; r++ {
		emit(isa.Instruction{Op: isa.SW, Rs1: isa.R0, Rs2: isa.IntReg(r), Rd: isa.NoReg, Imm: int32(100 + r)})
	}
	emit(isa.Instruction{Op: isa.HALT, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg})
	return prog
}

// TestRandomProgramsMatchInterpreter is the machine-level differential
// property: for random structured programs and every interesting machine
// shape, the multithreaded processor computes exactly what the functional
// interpreter computes.
func TestRandomProgramsMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	shapes := []Config{
		{ThreadSlots: 1, StandbyStations: true},
		{ThreadSlots: 1, StandbyStations: false},
		{ThreadSlots: 1, StandbyStations: true, LoadStoreUnits: 2},
		{ThreadSlots: 1, StandbyStations: true, IssueWidth: 2},
		{ThreadSlots: 1, StandbyStations: true, IssueWidth: 4},
		{ThreadSlots: 1, StandbyStations: false, IssueWidth: 2},
		{ThreadSlots: 1, StandbyStations: true, PrivateICache: true},
		{ThreadSlots: 1, StandbyStations: true, RotationInterval: 1},
	}
	for trial := 0; trial < 60; trial++ {
		prog := genStructuredProgram(rng)

		golden := mem.NewMemory(256)
		for a := int64(64); a < 128; a++ {
			golden.SetInt(a, a*17%101)
		}
		ip := exec.NewInterp(prog, golden)
		if err := ip.Run(); err != nil {
			t.Fatalf("trial %d: interp: %v", trial, err)
		}

		for si, cfg := range shapes {
			m := mem.NewMemory(256)
			for a := int64(64); a < 128; a++ {
				m.SetInt(a, a*17%101)
			}
			p, err := New(cfg, prog, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.StartThread(0); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(); err != nil {
				t.Fatalf("trial %d shape %d: %v", trial, si, err)
			}
			for a := int64(64); a < 128; a++ {
				gw, _ := golden.Load(a)
				mw, _ := m.Load(a)
				if gw != mw {
					t.Fatalf("trial %d shape %d: mem[%d] = %#x, interp %#x", trial, si, a, mw, gw)
				}
			}
		}
	}
}

// TestJalJrOnCore exercises call/return through the pipeline.
func TestJalJrOnCore(t *testing.T) {
	p, _ := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, `
		li   r1, 5
		call double
		call double
		sw   r1, 100(r0)
		halt
	double:	add r1, r1, r1
		ret
	`)
	if got := p.Mem().IntAt(100); got != 20 {
		t.Errorf("result = %d, want 20", got)
	}
}

// TestWAWInterlock: a second write to a register must wait for the first
// (scoreboard WAW interlock), keeping in-order semantics even when the
// first write has a long latency.
func TestWAWInterlock(t *testing.T) {
	prog, _ := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, `
		li   r1, 7
		li   r2, 3
		mul  r3, r1, r2   ; 6-cycle result
		addi r3, r0, 99   ; WAW on r3
		sw   r3, 100(r0)
		halt
	`)
	if got := prog.Mem().IntAt(100); got != 99 {
		t.Errorf("r3 = %d, want 99 (WAW order violated)", got)
	}
}

// TestForkSkipsBusySlots: fast-fork only claims idle thread slots.
func TestForkSkipsBusySlots(t *testing.T) {
	// Two threads are started explicitly; a fork from thread 0 can then
	// claim only the remaining two slots. Forked threads resume after the
	// ffork instruction, so the thread id is re-read there.
	prog := `
		tid  r1
		bnez r1, worker    ; explicit thread 1 goes straight to work
		ffork
		tid  r1            ; thread 0 reads 0; forked threads read 2, 3
		bnez r1, worker
		sw   r1, 100(r0)
		halt
	worker:	addi r2, r1, 40
		sw   r2, 100(r1)
		halt
	`
	p, res := runSrc(t, Config{ThreadSlots: 4, StandbyStations: true}, prog, 0, 0)
	if res.Forks != 2 {
		t.Errorf("forks = %d, want 2 (two slots were busy)", res.Forks)
	}
	// threads 0,1 explicit; forked threads get tids 2,3 (slot ids)
	if got := p.Mem().IntAt(101); got != 41 {
		t.Errorf("explicit thread result = %d, want 41", got)
	}
	for tid := int64(2); tid <= 3; tid++ {
		if got := p.Mem().IntAt(100 + tid); got != 40+tid {
			t.Errorf("forked thread %d result = %d, want %d", tid, got, 40+tid)
		}
	}
}

// TestHaltDrainsInflight: results in flight at halt still complete, and
// the reported cycle count covers them.
func TestHaltDrainsInflight(t *testing.T) {
	_, res := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, `
		li   r1, 9
		mul  r2, r1, r1   ; still in the multiplier when halt decodes
		halt
	`)
	// mul selected at least 1 cycle after issue + 6 result latency; the
	// total must extend past it.
	if res.Cycles < 10 {
		t.Errorf("cycles = %d, implausibly small for a drained multiply", res.Cycles)
	}
}

// TestBranchContentionExceedsFive: when several threads branch at once the
// shared fetch unit serialises the refills, making the delay exceed five
// cycles ("it could become more than five if some threads encounter
// branches at the same time", §2.1.2).
func TestBranchContentionExceedsFive(t *testing.T) {
	// Thread 0 and thread 1 run two routines whose branches resolve a
	// tunable number of cycles apart; sweeping the skew guarantees some
	// alignment where the second redirect finds the fetch unit busy.
	over := 0
	for skew := 0; skew < 5; skew++ {
		src := "\tnop\n\tnop\n\tnop\n\tj ta\nta:\taddi r2, r0, 1\n\thalt\n"
		srcB := ""
		for i := 0; i < skew; i++ {
			srcB += "\tnop\n"
		}
		srcB += "\tnop\n\tnop\n\tnop\n\tj tb\ntb:\taddi r2, r0, 1\n\thalt\n"
		prog := mustAsm(t, src+"routb:\n"+srcB)
		m, _ := prog.NewMemory(16)
		p, _ := New(Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
		if err := p.StartThread(prog.MustSymbol("routb")); err != nil {
			t.Fatal(err)
		}
		branchPC := map[int]int64{}
		targetPC := map[int]int64{0: 4, 1: prog.MustSymbol("routb") + int64(skew) + 4}
		branchPC[0] = 3
		branchPC[1] = prog.MustSymbol("routb") + int64(skew) + 3
		issue := map[[2]int64]uint64{}
		p.Observe(&hookObserver{issue: func(slot int, pc int64, cyc uint64) { issue[[2]int64{int64(slot), pc}] = cyc }})
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 2; slot++ {
			d := issue[[2]int64{int64(slot), targetPC[slot]}] - issue[[2]int64{int64(slot), branchPC[slot]}]
			if d < 5 {
				t.Errorf("skew %d slot %d: branch delay %d < 5", skew, slot, d)
			}
			if d > 5 {
				over++
			}
		}
	}
	if over == 0 {
		t.Error("no alignment produced a branch delay above 5 despite fetch contention")
	}
}

// TestStallAccounting: the per-slot stall counters attribute delays.
func TestStallAccounting(t *testing.T) {
	_, res := runSrc(t, Config{ThreadSlots: 1, StandbyStations: true}, `
		lw   r1, 100(r0)
		addi r2, r1, 1    ; data stall on the load
		halt
	`)
	if res.Slots[0].Stalls[StallData] == 0 {
		t.Error("no data stalls recorded for a load-use dependency")
	}
	if res.Slots[0].Stalls[StallEmpty] == 0 {
		t.Error("no empty-decode stalls recorded (startup + halt drain)")
	}
}

// TestResultString covers the human-readable report.
func TestResultString(t *testing.T) {
	_, res := runSrc(t, Config{ThreadSlots: 2, StandbyStations: true}, `
		ffork
		tid r1
		halt
	`)
	s := res.String()
	for _, want := range []string{"cycles=", "IntALU", "slot 0", "forks=1"} {
		if !containsStr(s, want) {
			t.Errorf("Result.String() missing %q:\n%s", want, s)
		}
	}
	for r := StallReason(0); r < numStallReasons; r++ {
		if r.String() == "" || containsStr(r.String(), "StallReason(") {
			t.Errorf("StallReason(%d) lacks a name", r)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func mustAsm(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTraceModeBranchDelay: trace replay preserves the 5-cycle branch
// bubble.
func TestTraceModeBranchDelay(t *testing.T) {
	in := []TraceInput{
		{Ins: isa.Instruction{Op: isa.ADDI, Rd: isa.R1, Rs1: isa.R0, Rs2: isa.NoReg, Imm: 1}},
		{Ins: isa.Instruction{Op: isa.J, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg, Imm: 0}},
		{Ins: isa.Instruction{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R0, Rs2: isa.NoReg, Imm: 2}},
		{Ins: isa.Instruction{Op: isa.HALT, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg}},
	}
	p, err := NewTraceDriven(Config{ThreadSlots: 1, StandbyStations: true}, [][]TraceInput{in})
	if err != nil {
		t.Fatal(err)
	}
	issue := map[int64]uint64{}
	p.Observe(&hookObserver{issue: func(_ int, pc int64, cyc uint64) { issue[pc] = cyc }})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if d := issue[2] - issue[1]; d != 5 {
		t.Errorf("trace-mode branch delay = %d, want 5", d)
	}
}
