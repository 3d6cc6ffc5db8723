// Package risc models the paper's baseline: a conventional superpipelined
// RISC processor (Figure 3(b)) with the same functional units and latencies
// as the multithreaded machine but a single instruction stream. The paper's
// speed-up ratios are defined against sequential execution on this machine.
//
// Timing rules (calibrated to the two facts the paper states):
//
//   - An instruction that uses the result of a previous instruction with a
//     2-cycle result latency decodes 3 cycles after it ("at least three
//     cycles are required between I1 and I2"), the same distance as on the
//     multithreaded pipeline: a producer decoded at cycle d makes its
//     destination ready at d + resultLatency + 1.
//   - The instruction executed immediately after a branch decodes 4 cycles
//     after the branch ("the delay between I1 and I3 is four cycles"),
//     versus 5 on the multithreaded pipeline.
//
// There is no branch prediction and no delayed branch (§3.1).
package risc

import (
	"fmt"

	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// BranchPenalty is the decode-to-decode distance after a branch.
const BranchPenalty = 4

// Config describes the baseline machine.
type Config struct {
	// LoadStoreUnits matches the multithreaded configurations (1 or 2).
	LoadStoreUnits int
	// ICache and DCache configure cache models (zero = perfect, the
	// paper's assumption).
	ICache, DCache mem.CacheConfig
	// MaxCycles aborts runaway programs.
	MaxCycles uint64
	// StrictVerify makes the top-level runners (hirata.RunRISC) refuse to
	// simulate a program the static verifier (internal/lint) finds
	// diagnostics in. The machine itself ignores this field.
	StrictVerify bool
}

func (c Config) withDefaults() Config {
	if c.LoadStoreUnits <= 0 {
		c.LoadStoreUnits = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 200_000_000
	}
	return c
}

// UnitStat mirrors core.UnitStat for the baseline machine.
type UnitStat struct {
	Class       isa.UnitClass
	Index       int
	Invocations uint64
	BusyCycles  uint64
}

// Result summarises a run.
type Result struct {
	Cycles       uint64
	Instructions uint64
	Branches     uint64
	Units        []UnitStat
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// Machine is one baseline processor instance.
type Machine struct {
	cfg    Config
	prog   []isa.Instruction
	mem    *mem.Memory
	icache *mem.Cache
	dcache *mem.Cache

	regs    exec.RegFile
	readyAt [isa.NumIntRegs + isa.NumFPRegs]uint64
	units   map[isa.UnitClass][]*unit

	pc        int64
	cycle     uint64
	lastEvent uint64
	stats     Result

	// OnDecode, when set, observes every instruction's decode: (pc, cycle).
	OnDecode func(pc int64, cycle uint64)
}

type unit struct {
	class isa.UnitClass
	// nextFree is the first decode cycle at which the unit can accept
	// another instruction.
	nextFree uint64
	stat     UnitStat
}

// New builds a baseline machine for prog with data memory m.
func New(cfg Config, prog []isa.Instruction, m *mem.Memory) (*Machine, error) {
	cfg = cfg.withDefaults()
	if len(prog) == 0 {
		return nil, fmt.Errorf("risc: empty program")
	}
	mc := &Machine{
		cfg:    cfg,
		prog:   prog,
		mem:    m,
		icache: mem.NewCache(cfg.ICache),
		dcache: mem.NewCache(cfg.DCache),
		units:  make(map[isa.UnitClass][]*unit),
	}
	for cls := isa.UnitClass(1); int(cls) <= isa.NumUnitClasses; cls++ {
		n := 1
		if cls == isa.UnitLoadStore {
			n = cfg.LoadStoreUnits
		}
		for k := 0; k < n; k++ {
			mc.units[cls] = append(mc.units[cls], &unit{class: cls, stat: UnitStat{Class: cls, Index: k}})
		}
	}
	return mc, nil
}

// ctx adapts the machine to exec.Context.
type ctx struct{ m *Machine }

func (c ctx) ReadInt(r isa.Reg) int64       { return c.m.regs.ReadInt(r) }
func (c ctx) WriteInt(r isa.Reg, v int64)   { c.m.regs.WriteInt(r, v) }
func (c ctx) ReadFP(r isa.Reg) float64      { return c.m.regs.ReadFP(r) }
func (c ctx) WriteFP(r isa.Reg, v float64)  { c.m.regs.WriteFP(r, v) }
func (c ctx) Load(a int64) (uint64, error)  { return c.m.mem.Load(a) }
func (c ctx) Store(a int64, v uint64) error { return c.m.mem.Store(a, v) }
func (c ctx) TID() int                      { return 0 }

// Run executes the program to completion and returns statistics.
func (m *Machine) Run() (Result, error) {
	for {
		if m.cycle >= m.cfg.MaxCycles {
			return m.stats, fmt.Errorf("risc: exceeded %d cycles at pc %d", m.cfg.MaxCycles, m.pc)
		}
		if m.pc < 0 || m.pc >= int64(len(m.prog)) {
			return m.stats, fmt.Errorf("risc: pc %d outside program", m.pc)
		}
		in := m.prog[m.pc]
		halt, err := m.decode(in)
		if err != nil {
			return m.stats, err
		}
		if halt {
			break
		}
	}
	m.stats.Cycles = m.lastEvent + 1
	for cls := isa.UnitClass(1); int(cls) <= isa.NumUnitClasses; cls++ {
		for _, u := range m.units[cls] {
			m.stats.Units = append(m.stats.Units, u.stat)
		}
	}
	return m.stats, nil
}

// decode models the D stage of one instruction: interlock until operands,
// destination and a functional unit are available, then execute and charge
// latencies. It advances m.cycle to the decode cycle of the next
// instruction and reports whether the program halted.
func (m *Machine) decode(in isa.Instruction) (bool, error) {
	// Operand and WAW interlocks (scoreboarding).
	var srcs []isa.Reg
	srcs = in.Sources(srcs)
	for _, r := range srcs {
		m.waitFor(r)
	}
	if d := in.Dest(); d.Valid() {
		m.waitFor(d)
	}

	cls := in.Op.Unit()
	var u *unit
	if cls != isa.UnitNone {
		u = m.pickUnit(cls)
		if u.nextFree > m.cycle {
			m.cycle = u.nextFree
		}
	}

	switch in.Op {
	case isa.FFORK, isa.CHGPRI, isa.KILL, isa.QEN, isa.QENF, isa.QDIS:
		return false, fmt.Errorf("risc: pc %d: %s requires the multithreaded machine", m.pc, in.Op)
	}

	// Read a memory instruction's address before it executes: a load
	// whose destination is its base register (lw r1, 0(r1)) overwrites it.
	var addr int64
	if in.Op.IsMem() {
		addr = m.regs.ReadInt(in.Rs1) + int64(in.Imm)
	}
	out, err := exec.Execute(in, m.pc, ctx{m})
	if err != nil {
		return false, err
	}
	m.stats.Instructions++
	m.touch(m.cycle)
	if m.OnDecode != nil {
		m.OnDecode(m.pc, m.cycle)
	}

	extra := 0
	if in.Op.IsMem() {
		if m.mem.IsRemote(addr) {
			extra += m.mem.RemoteLatency()
		}
		extra += m.dcache.Access(addr) - mem.CacheAccessCycles
	}

	if u != nil {
		u.nextFree = m.cycle + uint64(in.Op.IssueLatency())
		u.stat.Invocations++
		u.stat.BusyCycles += uint64(in.Op.IssueLatency())
	}
	if d := in.Dest(); d.Valid() && !(d.IsInt() && d.Index() == 0) {
		ready := m.cycle + uint64(in.Op.ResultLatency()+extra) + 1
		if in.Op.Unit() == isa.UnitNone {
			ready = m.cycle + 1 // jal link is written in the decode stage
		}
		m.readyAt[sbIndex(d)] = ready
		m.touch(ready)
	}

	// Control flow and the decode cycle of the next instruction.
	switch {
	case out.Effect == exec.EffectHalt:
		return true, nil
	case out.Effect == exec.EffectBranch:
		m.stats.Branches++
		if out.Taken {
			m.pc = out.Target
		} else {
			m.pc++
		}
		m.cycle += BranchPenalty
	default:
		m.pc++
		m.cycle++
	}
	// Instruction cache misses delay the following fetch.
	if m.cfg.ICache.Lines > 0 {
		m.cycle += uint64(m.icache.Access(m.pc) - mem.CacheAccessCycles)
	}
	return false, nil
}

// waitFor advances the clock until register r is available.
func (m *Machine) waitFor(r isa.Reg) {
	if !r.Valid() || (r.IsInt() && r.Index() == 0) {
		return
	}
	if t := m.readyAt[sbIndex(r)]; t > m.cycle {
		m.cycle = t
	}
}

// pickUnit returns the unit of the class that frees up earliest.
func (m *Machine) pickUnit(cls isa.UnitClass) *unit {
	us := m.units[cls]
	best := us[0]
	for _, u := range us[1:] {
		if u.nextFree < best.nextFree {
			best = u
		}
	}
	return best
}

func (m *Machine) touch(c uint64) {
	if c > m.lastEvent {
		m.lastEvent = c
	}
}

func sbIndex(r isa.Reg) int {
	if r.IsFP() {
		return isa.NumIntRegs + r.Index()
	}
	return r.Index()
}

// Regs exposes the architectural registers after Run (for verification).
func (m *Machine) Regs() *exec.RegFile { return &m.regs }
