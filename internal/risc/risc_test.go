package risc

import (
	"math/rand"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

func runSrc(t *testing.T, cfg Config, src string) (*Machine, Result) {
	t.Helper()
	prog := asm.MustAssemble(src)
	m, err := prog.NewMemory(256)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return mc, res
}

func TestBasicProgram(t *testing.T) {
	mc, res := runSrc(t, Config{}, `
		addi r1, r0, 10
		addi r2, r0, 0
	loop:	add  r2, r2, r1
		addi r1, r1, -1
		bnez r1, loop
		halt
	`)
	if got := mc.Regs().ReadInt(isa.R2); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if res.Instructions != 33 {
		t.Errorf("instructions = %d, want 33", res.Instructions)
	}
	if res.Branches != 10 {
		t.Errorf("branches = %d, want 10", res.Branches)
	}
}

// TestDependentDecodeDistance pins the 3-cycle dependent distance the paper
// requires of the base RISC pipeline.
func TestDependentDecodeDistance(t *testing.T) {
	prog := asm.MustAssemble(`
		addi r1, r0, 1
		addi r2, r1, 1
		addi r3, r0, 1
		halt
	`)
	m, _ := prog.NewMemory(16)
	mc, _ := New(Config{}, prog.Text, m)
	dec := map[int64]uint64{}
	mc.OnDecode = func(pc int64, cyc uint64) { dec[pc] = cyc }
	if _, err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	if d := dec[1] - dec[0]; d != 3 {
		t.Errorf("dependent decode distance = %d, want 3", d)
	}
	if d := dec[2] - dec[1]; d != 1 {
		t.Errorf("independent decode distance = %d, want 1", d)
	}
}

// TestBranchDelayFour pins the paper's 4-cycle branch delay on the baseline.
func TestBranchDelayFour(t *testing.T) {
	prog := asm.MustAssemble(`
		addi r1, r0, 1
		j    next
	next:	addi r2, r0, 2
		bnez r0, never
		addi r3, r0, 3
		halt
	never:	halt
	`)
	m, _ := prog.NewMemory(16)
	mc, _ := New(Config{}, prog.Text, m)
	dec := map[int64]uint64{}
	mc.OnDecode = func(pc int64, cyc uint64) { dec[pc] = cyc }
	if _, err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	if d := dec[2] - dec[1]; d != 4 {
		t.Errorf("taken branch delay = %d, want 4", d)
	}
	if d := dec[4] - dec[3]; d != 4 {
		t.Errorf("not-taken branch delay = %d, want 4", d)
	}
}

func TestLoadStoreOccupancy(t *testing.T) {
	prog := asm.MustAssemble(`
		lw r1, 100(r0)
		lw r2, 101(r0)
		halt
	`)
	m, _ := prog.NewMemory(256)
	mc, _ := New(Config{LoadStoreUnits: 1}, prog.Text, m)
	dec := map[int64]uint64{}
	mc.OnDecode = func(pc int64, cyc uint64) { dec[pc] = cyc }
	if _, err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	if d := dec[1] - dec[0]; d != 2 {
		t.Errorf("back-to-back load distance = %d, want 2 (issue latency)", d)
	}
}

func TestRejectsMultithreadOps(t *testing.T) {
	for _, src := range []string{"ffork\nhalt\n", "chgpri\nhalt\n", "kill\nhalt\n", "qdis\nhalt\n"} {
		prog := asm.MustAssemble(src)
		m, _ := prog.NewMemory(16)
		mc, _ := New(Config{}, prog.Text, m)
		if _, err := mc.Run(); err == nil {
			t.Errorf("multithread op accepted: %q", src)
		}
	}
}

func TestRemoteLatencyBlocks(t *testing.T) {
	prog := asm.MustAssemble(`
		lw   r1, 100(r0)
		addi r2, r1, 1
		halt
	`)
	mkMem := func(remote bool) *mem.Memory {
		if remote {
			return mem.NewMemoryWithRemote(256, 50, 100)
		}
		return mem.NewMemory(256)
	}
	mLocal, _ := New(Config{}, prog.Text, mkMem(false))
	resLocal, err := mLocal.Run()
	if err != nil {
		t.Fatal(err)
	}
	mRemote, _ := New(Config{}, prog.Text, mkMem(true))
	resRemote, err := mRemote.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resRemote.Cycles < resLocal.Cycles+90 {
		t.Errorf("remote access added %d cycles, want about 100",
			resRemote.Cycles-resLocal.Cycles)
	}
}

// TestLoadIntoBaseRegister: a load whose destination is its base register
// (lw r1, 0(r1), the list-walk idiom) is charged for the address it reads,
// not for the value it loads. So the loaded word cannot change the timing,
// whether it holds a negative number, a remote address or a local one.
func TestLoadIntoBaseRegister(t *testing.T) {
	prog := asm.MustAssemble(`
		li r1, 5
		lw r1, 0(r1)
		halt
	`)
	for _, tc := range []struct {
		name   string
		cfg    Config
		mkMem  func() *mem.Memory
		words  []int64 // values of word 5, all timed alike
		cycles uint64
	}{
		{"remote memory", Config{},
			func() *mem.Memory { return mem.NewMemoryWithRemote(64, 32, 100) }, []int64{40, 4}, 9},
		{"finite dcache", Config{DCache: mem.CacheConfig{Lines: 8}},
			func() *mem.Memory { return mem.NewMemory(64) }, []int64{-3, 4}, 29},
	} {
		for _, w := range tc.words {
			m := tc.mkMem()
			m.SetInt(5, w)
			mc, err := New(tc.cfg, prog.Text, m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mc.Run()
			if err != nil {
				t.Fatalf("%s, word 5 = %d: %v", tc.name, w, err)
			}
			if res.Cycles != tc.cycles {
				t.Errorf("%s, word 5 = %d: %d cycles, want %d", tc.name, w, res.Cycles, tc.cycles)
			}
			if got := mc.Regs().ReadInt(isa.R1); got != w {
				t.Errorf("%s: r1 = %d, want the loaded %d", tc.name, got, w)
			}
		}
	}
}

func TestFiniteICacheSlowsDown(t *testing.T) {
	// A loop far larger than the icache must run slower than with a
	// perfect cache.
	src := ""
	for i := 0; i < 200; i++ {
		src += "addi r1, r1, 1\n"
	}
	src += "addi r2, r2, 1\nsubi r3, r2, 3\nbnez r3, 0\nhalt\n"
	prog := asm.MustAssemble(src)
	m, _ := prog.NewMemory(16)
	perfect, _ := New(Config{}, prog.Text, m)
	resPerfect, err := perfect.Run()
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := prog.NewMemory(16)
	small, _ := New(Config{ICache: mem.CacheConfig{Lines: 4, WordsPerLine: 4, MissPenalty: 20}}, prog.Text, m2)
	resSmall, err := small.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.Cycles <= resPerfect.Cycles {
		t.Errorf("finite icache not slower: %d <= %d", resSmall.Cycles, resPerfect.Cycles)
	}
}

// TestMatchesInterpreter cross-checks the timing machine's architectural
// results against the functional interpreter on a randomised arithmetic
// program.
func TestMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ops := []isa.Opcode{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLT, isa.MUL, isa.SLL, isa.SRA}
	for trial := 0; trial < 30; trial++ {
		var prog []isa.Instruction
		for i := 0; i < 8; i++ {
			prog = append(prog, isa.Instruction{
				Op: isa.ADDI, Rd: isa.IntReg(i + 1), Rs1: isa.R0,
				Imm: int32(rng.Intn(2000) - 1000),
			})
		}
		for i := 0; i < 40; i++ {
			op := ops[rng.Intn(len(ops))]
			prog = append(prog, isa.Instruction{
				Op:  op,
				Rd:  isa.IntReg(rng.Intn(15) + 1),
				Rs1: isa.IntReg(rng.Intn(15) + 1),
				Rs2: isa.IntReg(rng.Intn(8) + 1),
			})
		}
		prog = append(prog, isa.Instruction{Op: isa.HALT})

		ip := exec.NewInterp(prog, mem.NewMemory(16))
		if err := ip.Run(); err != nil {
			t.Fatal(err)
		}
		mc, _ := New(Config{}, prog, mem.NewMemory(16))
		if _, err := mc.Run(); err != nil {
			t.Fatal(err)
		}
		for r := 1; r < 16; r++ {
			reg := isa.IntReg(r)
			if ip.Regs.ReadInt(reg) != mc.Regs().ReadInt(reg) {
				t.Fatalf("trial %d: %s: interp %d != risc %d",
					trial, reg, ip.Regs.ReadInt(reg), mc.Regs().ReadInt(reg))
			}
		}
	}
}

func TestFloatAndStorePath(t *testing.T) {
	prog := asm.MustAssemble(`
		.data
		.org 20
	vals:	.float 2.25, 4.0
		.text
		flw  f1, vals+0
		flw  f2, vals+1
		fmul f3, f1, f2
		fdiv f4, f3, f2
		fsqrt f5, f2
		fsw  f3, 30(r0)
		itof f6, r0
		ftoi r2, f5
		tid  r3
		sw   r2, 31(r0)
		halt
	`)
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := New(Config{LoadStoreUnits: 2}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.FloatAt(30); got != 9.0 {
		t.Errorf("stored product = %g, want 9", got)
	}
	if got := m.IntAt(31); got != 2 {
		t.Errorf("sqrt->int = %d, want 2", got)
	}
	if got := mc.Regs().ReadInt(isa.IntReg(3)); got != 0 {
		t.Errorf("tid on risc = %d, want 0", got)
	}
	if res.IPC() <= 0 || res.CPI() <= 0 {
		t.Error("IPC/CPI not positive")
	}
	if res.IPC()*res.CPI() < 0.99 || res.IPC()*res.CPI() > 1.01 {
		t.Errorf("IPC*CPI = %g, want 1", res.IPC()*res.CPI())
	}
}

func TestRiscErrors(t *testing.T) {
	if _, err := New(Config{}, nil, mem.NewMemory(4)); err == nil {
		t.Error("empty program accepted")
	}
	// Jump outside the program.
	prog := []isa.Instruction{{Op: isa.J, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg, Imm: 100}}
	mc, _ := New(Config{}, prog, mem.NewMemory(4))
	if _, err := mc.Run(); err == nil {
		t.Error("runaway pc not detected")
	}
	// Runaway cycle bound.
	loop := asm.MustAssemble("x:\tj x\n")
	mc2, _ := New(Config{MaxCycles: 500}, loop.Text, mem.NewMemory(4))
	if _, err := mc2.Run(); err == nil {
		t.Error("infinite loop not detected")
	}
}
