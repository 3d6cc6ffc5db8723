package hirata

import (
	"fmt"
	"strings"

	"hirata/internal/mem"
)

// RotationSweepCell is one rotation-interval measurement (§3.2: "we also
// examined the execution cycles with various rotation intervals (2^n
// cycles, where n is 0..8)").
type RotationSweepCell struct {
	Interval int
	Cycles   uint64
	Speedup  float64
}

// RunRotationSweep measures the ray tracer with rotation intervals 2^0..2^8
// on the given machine shape.
func RunRotationSweep(w RayTraceConfig, slots, lsUnits int) ([]RotationSweepCell, error) {
	rt, err := BuildRayTrace(w)
	if err != nil {
		return nil, err
	}
	// Cell 0 is the sequential baseline; cells 1..9 sweep intervals 2^0..2^8.
	cells := []cell{seqCell(rt, rt.Seq, lsUnits)}
	for n := 0; n <= 8; n++ {
		cells = append(cells, parCell(rt, rt.Par, MTConfig{
			ThreadSlots:      slots,
			LoadStoreUnits:   lsUnits,
			StandbyStations:  true,
			RotationInterval: 1 << n,
		}))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []RotationSweepCell
	for i, c := range cells[1:] {
		cycles := res[1+i].Cycles
		out = append(out, RotationSweepCell{
			Interval: c.cfg.RotationInterval,
			Cycles:   cycles,
			Speedup:  ratio(res[0].Cycles, cycles),
		})
	}
	return out, nil
}

// PrivateICacheCell compares shared and private instruction caches for one
// machine shape (§3.2's variant experiment: the paper reports 1.79→1.80
// and 5.79→5.80, i.e. sharing the instruction cache is essentially free).
type PrivateICacheCell struct {
	Slots          int
	LoadStoreUnits int
	Standby        bool
	SharedSpeedup  float64
	PrivateSpeedup float64
}

// RunPrivateICache measures the private-fetch-unit variant on the two
// corner configurations the paper quotes plus any extra shapes given.
func RunPrivateICache(w RayTraceConfig) ([]PrivateICacheCell, error) {
	rt, err := BuildRayTrace(w)
	if err != nil {
		return nil, err
	}
	shapes := []MTConfig{
		{ThreadSlots: 2, LoadStoreUnits: 1},
		{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true},
	}
	// Three cells per shape: the baseline, the shared-cache run and the
	// private-cache run.
	var cells []cell
	for _, sh := range shapes {
		private := sh
		private.PrivateICache = true
		cells = append(cells, seqCell(rt, rt.Seq, sh.LoadStoreUnits), parCell(rt, rt.Par, sh), parCell(rt, rt.Par, private))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []PrivateICacheCell
	for i, sh := range shapes {
		r := res[3*i:]
		out = append(out, PrivateICacheCell{
			Slots:          sh.ThreadSlots,
			LoadStoreUnits: sh.LoadStoreUnits,
			Standby:        sh.StandbyStations,
			SharedSpeedup:  ratio(r[0].Cycles, r[1].Cycles),
			PrivateSpeedup: ratio(r[0].Cycles, r[2].Cycles),
		})
	}
	return out, nil
}

// UtilizationReport returns per-functional-unit utilization of the ray
// tracer on a machine shape (the §3.2 observation that the load/store unit
// reaches 99% at eight thread slots).
func UtilizationReport(w RayTraceConfig, slots, lsUnits int) (MTResult, error) {
	rt, err := BuildRayTrace(w)
	if err != nil {
		return MTResult{}, err
	}
	res, err := runGrid([]cell{parCell(rt, rt.Par, MTConfig{
		ThreadSlots:     slots,
		LoadStoreUnits:  lsUnits,
		StandbyStations: true,
	})})
	if err != nil {
		return MTResult{}, err
	}
	return res[0], nil
}

// FiniteCacheCell is one finite-cache measurement (the paper's stated
// future work: "we are currently working on evaluating finite cache
// effects").
type FiniteCacheCell struct {
	Lines   int // data-cache lines (0 = perfect)
	Cycles  uint64
	Speedup float64 // vs the same machine with a perfect cache
}

// RunFiniteCache sweeps data-cache sizes for the ray tracer on a fixed
// machine shape, quantifying how finite caches erode multithreaded
// speed-up (more threads → more working sets competing for the cache).
func RunFiniteCache(w RayTraceConfig, slots int, lines []int) ([]FiniteCacheCell, error) {
	rt, err := BuildRayTrace(w)
	if err != nil {
		return nil, err
	}
	// Cell 0 is the perfect cache; cells 1.. sweep the finite sizes.
	lines = append([]int{0}, lines...)
	var cells []cell
	for _, n := range lines {
		cells = append(cells, parCell(rt, rt.Par, MTConfig{
			ThreadSlots:     slots,
			LoadStoreUnits:  2,
			StandbyStations: true,
			DCache:          mem.CacheConfig{Lines: n, WordsPerLine: 4, MissPenalty: 20},
		}))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []FiniteCacheCell
	for i, n := range lines {
		out = append(out, FiniteCacheCell{Lines: n, Cycles: res[i].Cycles, Speedup: ratio(res[0].Cycles, res[i].Cycles)})
	}
	return out, nil
}

// QueueDepthCell is one queue-register-depth ablation measurement for the
// eager while-loop (DESIGN.md ablations; the paper uses depth-1 queue
// registers with full/empty bits).
type QueueDepthCell struct {
	Depth         int
	CyclesPerIter float64
}

// RunQueueDepthAblation sweeps the queue register FIFO depth on the eager
// linked-list traversal.
func RunQueueDepthAblation(nodes, slots int, depths []int) ([]QueueDepthCell, error) {
	ll, err := BuildLinkedList(LinkedListConfig{Nodes: nodes, BreakAt: -1})
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, d := range depths {
		cells = append(cells, parCell(ll, ll.Par, MTConfig{
			ThreadSlots:     slots,
			LoadStoreUnits:  1,
			StandbyStations: true,
			QueueDepth:      d,
		}))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []QueueDepthCell
	for i, d := range depths {
		out = append(out, QueueDepthCell{Depth: d, CyclesPerIter: float64(res[i].Cycles) / float64(nodes)})
	}
	return out, nil
}

// ConcurrentMTCell is one concurrent-multithreading measurement: threads
// with remote-memory loads, with context switching enabled or suppressed.
type ConcurrentMTCell struct {
	ContextFrames int
	Suppressed    bool // context switching suppressed (explicit mode)
	Cycles        uint64
	Switches      uint64
}

// RunConcurrentMT measures how rapid context switching between context
// frames hides remote-memory latency (§2.1.3, which the paper outlines but
// does not evaluate). It runs `threads` copies of a pointer-chase-plus-
// compute kernel whose data lives in remote memory on a single thread
// slot: once with data-absence traps suppressed (threads simply stall on
// remote loads, one after another) and once per requested frame count with
// switching enabled.
func RunConcurrentMT(threads int, frames []int, remoteLatency int) ([]ConcurrentMTCell, error) {
	prog, err := Assemble(concurrentMTSrc)
	if err != nil {
		return nil, err
	}
	if threads < 1 {
		return nil, fmt.Errorf("hirata: concurrent MT needs at least one thread (got %d)", threads)
	}
	for _, nf := range frames {
		if nf < threads {
			return nil, fmt.Errorf("hirata: concurrent MT needs at least one context frame per thread (%d < %d)", nf, threads)
		}
	}
	remote := func() (*Memory, error) {
		m := NewMemoryWithRemote(8192, 4096, remoteLatency)
		for i := int64(4096); i < 8192; i++ {
			m.SetInt(i, i%97)
		}
		return m, nil
	}
	pcs := make([]int64, threads)
	// Cell 0 is the stall-through baseline: explicit-rotation mode
	// suppresses data-absence context switches (§2.3.1). Cells 1..
	// enable switching.
	cells := []cell{mtCell(prog.Text, remote, MTConfig{
		ThreadSlots: 1, ContextFrames: threads, StandbyStations: true, ExplicitRotation: true,
	}, pcs...)}
	for _, nf := range frames {
		cells = append(cells, mtCell(prog.Text, remote, MTConfig{
			ThreadSlots: 1, ContextFrames: nf, StandbyStations: true,
		}, pcs...))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []ConcurrentMTCell
	for i, c := range cells {
		out = append(out, ConcurrentMTCell{
			ContextFrames: c.cfg.ContextFrames,
			Suppressed:    c.cfg.ExplicitRotation,
			Cycles:        res[i].Cycles,
			Switches:      res[i].Switches,
		})
	}
	return out, nil
}

// concurrentMTSrc is RunConcurrentMT's kernel: chained loads from a
// per-thread remote block with a little compute between them. The
// cycle-skip differential tests reuse it as the high-remote-latency
// workload where quiescent stretches dominate.
const concurrentMTSrc = `
	tid  r1
	slli r2, r1, 4
	addi r3, r2, 4096     ; this thread's remote block
	li   r6, 8            ; 8 chained remote loads
loop:	lw   r4, 0(r3)
	add  r5, r5, r4
	addi r3, r3, 1
	addi r6, r6, -1
	bnez r6, loop
	mul  r5, r5, r5
	sw   r5, 100(r1)
	halt
`

// IssueBandwidthCell compares the paper's simultaneous issue against the
// single-issue multithreaded precursors of §4 (HEP-style cycle-by-cycle
// interleaving; Farrens & Pleszkun's competing streams): the same machine
// with the total issue bandwidth capped at one instruction per cycle.
type IssueBandwidthCell struct {
	Slots              int
	SimultaneousCycles uint64
	SingleIssueCycles  uint64
	Simultaneous       float64 // speed-up vs sequential baseline
	SingleIssue        float64
}

// RunIssueBandwidth measures the ray tracer under both issue disciplines.
func RunIssueBandwidth(w RayTraceConfig, slots []int) ([]IssueBandwidthCell, error) {
	rt, err := BuildRayTrace(w)
	if err != nil {
		return nil, err
	}
	// Cell 0 is the sequential baseline; then each slot count with
	// simultaneous issue and with one instruction per cycle.
	cells := []cell{seqCell(rt, rt.Seq, 2)}
	for _, s := range slots {
		for _, limit := range []int{0, 1} {
			cells = append(cells, parCell(rt, rt.Par, MTConfig{
				ThreadSlots:      s,
				LoadStoreUnits:   2,
				StandbyStations:  true,
				MaxIssuePerCycle: limit,
			}))
		}
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []IssueBandwidthCell
	for i, s := range slots {
		simul, single := res[1+2*i].Cycles, res[2+2*i].Cycles
		out = append(out, IssueBandwidthCell{
			Slots:              s,
			SimultaneousCycles: simul,
			SingleIssueCycles:  single,
			Simultaneous:       ratio(res[0].Cycles, simul),
			SingleIssue:        ratio(res[0].Cycles, single),
		})
	}
	return out, nil
}

// DoacrossCell is one doacross-loop measurement (Livermore Kernel 5
// through queue registers).
type DoacrossCell struct {
	Slots         int
	Cycles        uint64
	CyclesPerIter float64
	Speedup       float64 // vs the sequential loop on the baseline machine
}

// RunDoacross measures the queue-register doacross execution of a
// first-order recurrence for the given slot counts.
func RunDoacross(n int, slots []int) ([]DoacrossCell, uint64, error) {
	rc, err := BuildRecurrence(RecurrenceConfig{N: n})
	if err != nil {
		return nil, 0, err
	}
	cells := []cell{seqCell(rc, rc.Seq, 1)}
	for _, s := range slots {
		cells = append(cells, parCell(rc, rc.Par, MTConfig{ThreadSlots: s, StandbyStations: true}))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, 0, err
	}
	seq := res[0].Cycles
	var out []DoacrossCell
	for i, s := range slots {
		c := res[1+i].Cycles
		out = append(out, DoacrossCell{
			Slots:         s,
			Cycles:        c,
			CyclesPerIter: float64(c) / float64(n),
			Speedup:       ratio(seq, c),
		})
	}
	return out, seq, nil
}

// SWPAblationCell contrasts strategy B against the software-pipelining
// scheduler on Livermore Kernel 1 (§2.3.2's motivating comparison).
type SWPAblationCell struct {
	Slots         int
	Strategy      Strategy
	CyclesPerIter float64
	CodeSize      int // instructions per loop body, including NOP padding
}

// RunSWPAblation measures LK1 cycles per iteration for strategy B vs the
// NOP-padding software pipeliner at the given thread-slot counts.
func RunSWPAblation(n int, slots []int) ([]SWPAblationCell, error) {
	var cells []cell
	var out []SWPAblationCell
	for _, s := range slots {
		for _, strat := range []Strategy{ScheduleStrategyB, ScheduleSWP} {
			c, err := lk1Cell(n, s, strat, 0)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
			out = append(out, SWPAblationCell{Slots: s, Strategy: strat, CodeSize: len(c.text)})
		}
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].CyclesPerIter = float64(res[i].Cycles) / float64(n)
	}
	return out, nil
}

// StandbyDepthCell measures the effect of deepening the standby stations
// beyond the paper's single latch (toward Tomasulo-style reservation
// stations, which §2.1.1 explicitly contrasts them with).
type StandbyDepthCell struct {
	Depth   int
	Cycles  uint64
	Speedup float64 // vs the sequential baseline
}

// RunStandbyDepth sweeps the standby-station depth on the ray tracer.
func RunStandbyDepth(w RayTraceConfig, slots int, depths []int) ([]StandbyDepthCell, error) {
	rt, err := BuildRayTrace(w)
	if err != nil {
		return nil, err
	}
	cells := []cell{seqCell(rt, rt.Seq, 1)}
	for _, d := range depths {
		cells = append(cells, parCell(rt, rt.Par, MTConfig{
			ThreadSlots:     slots,
			LoadStoreUnits:  1,
			StandbyStations: true,
			StandbyDepth:    d,
		}))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []StandbyDepthCell
	for i, d := range depths {
		out = append(out, StandbyDepthCell{
			Depth:   d,
			Cycles:  res[1+i].Cycles,
			Speedup: ratio(res[0].Cycles, res[1+i].Cycles),
		})
	}
	return out, nil
}

// UnrollCell measures loop unrolling (the paper's reference [3] transform)
// combined with static scheduling on Livermore Kernel 1.
type UnrollCell struct {
	Slots         int
	Unroll        int
	CyclesPerIter float64
}

// RunUnrollAblation sweeps the unroll factor under strategy A.
func RunUnrollAblation(n int, slots, unrolls []int) ([]UnrollCell, error) {
	var cells []cell
	var out []UnrollCell
	for _, s := range slots {
		for _, u := range unrolls {
			c, err := lk1Cell(n, s, ScheduleStrategyA, u)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
			out = append(out, UnrollCell{Slots: s, Unroll: u})
		}
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].CyclesPerIter = float64(res[i].Cycles) / float64(n)
	}
	return out, nil
}

// BranchHidingCell measures how multithreading hides branch delays
// (§2.1.2: "the parallel multithreading scheme has a potential to hide
// the delay of branches"). The workload is maximally branchy: a bounded
// Collatz iteration per element, one data-dependent branch every few
// instructions.
type BranchHidingCell struct {
	Slots          int
	Cycles         uint64
	Speedup        float64 // vs the sequential baseline RISC
	PerThreadEff   float64 // Speedup / Slots
	TwoFetch       float64 // with a second shared fetch unit (§2.1.1's remedy)
	PrivateSpeedup float64 // with per-slot fetch units
}

// branchySrc is the Collatz step-count kernel. Thread i handles elements
// i, i+stride, ... and stores the step count for each.
const branchySrc = `
	.data
	.org 8
gthreadsbh: .word 1
gn:     .word 96
vals:   .space 96
steps:  .space 96
	.text
	ffork
	tid  r1
	lw   r2, gthreadsbh
	lw   r3, gn
	mov  r4, r1          ; element index
eloop:	slt  r5, r4, r3
	beqz r5, done
	la   r6, vals
	add  r6, r6, r4
	lw   r7, 0(r6)       ; x
	li   r8, 0           ; step count
cloop:	slti r5, r7, 2       ; x < 2 ?
	bnez r5, cdone
	slti r5, r8, 64      ; step cap
	beqz r5, cdone
	andi r5, r7, 1
	bnez r5, odd
	srai r7, r7, 1       ; x /= 2
	j    next
odd:	slli r5, r7, 1
	add  r7, r5, r7
	addi r7, r7, 1       ; x = 3x + 1
next:	addi r8, r8, 1
	j    cloop
cdone:	la   r6, steps
	add  r6, r6, r4
	sw   r8, 0(r6)
	add  r4, r4, r2
	j    eloop
done:	halt
`

// RunBranchHiding measures the branchy kernel across thread counts.
func RunBranchHiding(slots []int) ([]BranchHidingCell, uint64, error) {
	prog, err := Assemble(branchySrc)
	if err != nil {
		return nil, 0, err
	}
	// The RISC machine rejects ffork, so the baseline runs the kernel
	// without it, as one thread.
	seqProg, err := Assemble(strings.Replace(branchySrc, "\tffork\n", "", 1))
	if err != nil {
		return nil, 0, err
	}
	// Cell 0 is the baseline; then per slot count the shared fetch unit,
	// two fetch units and private fetch units.
	cells := []cell{riscCell(seqProg.Text, branchyMemory(seqProg, 1), 1)}
	for _, s := range slots {
		for _, fetch := range []MTConfig{{FetchUnits: 1}, {FetchUnits: 2}, {PrivateICache: true}} {
			fetch.ThreadSlots = s
			fetch.StandbyStations = true
			cells = append(cells, mtCell(prog.Text, branchyMemory(prog, s), fetch))
		}
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, 0, err
	}
	seq := res[0].Cycles
	var out []BranchHidingCell
	for i, s := range slots {
		r := res[1+3*i:]
		speedup := ratio(seq, r[0].Cycles)
		out = append(out, BranchHidingCell{
			Slots:          s,
			Cycles:         r[0].Cycles,
			Speedup:        speedup,
			PerThreadEff:   speedup / float64(s),
			TwoFetch:       ratio(seq, r[1].Cycles),
			PrivateSpeedup: ratio(seq, r[2].Cycles),
		})
	}
	return out, seq, nil
}

// branchyMemory builds the branchy kernel's memory for p run by threads
// threads.
func branchyMemory(p *Program, threads int) func() (*Memory, error) {
	return func() (*Memory, error) {
		m, err := p.NewMemory(64)
		if err != nil {
			return nil, err
		}
		m.SetInt(p.MustSymbol("gthreadsbh"), int64(threads))
		base := p.MustSymbol("vals")
		for i := int64(0); i < 96; i++ {
			m.SetInt(base+i, 3+i*7%97)
		}
		return m, nil
	}
}
