package hirata

import (
	"fmt"
	"strings"

	"hirata/internal/core"
	"hirata/internal/isa"
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
	cycles, err := runCells(10, func(i int) (uint64, error) {
		if i == 0 {
			mSeq, err := rt.NewMemory(rt.Seq, 1)
			if err != nil {
				return 0, err
			}
			base, err := RunRISC(RISCConfig{LoadStoreUnits: lsUnits}, rt.Seq.Text, mSeq)
			if err != nil {
				return 0, err
			}
			return base.Cycles, nil
		}
		interval := 1 << (i - 1)
		m, err := rt.NewMemory(rt.Par, slots)
		if err != nil {
			return 0, err
		}
		res, err := RunMT(core.Config{
			ThreadSlots:      slots,
			LoadStoreUnits:   lsUnits,
			StandbyStations:  true,
			RotationInterval: interval,
		}, rt.Par.Text, m)
		if err != nil {
			return 0, fmt.Errorf("rotation sweep (interval %d): %w", interval, err)
		}
		return res.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	var out []RotationSweepCell
	for n := 0; n <= 8; n++ {
		out = append(out, RotationSweepCell{
			Interval: 1 << n,
			Cycles:   cycles[n+1],
			Speedup:  float64(cycles[0]) / float64(cycles[n+1]),
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
	shapes := []struct {
		slots, ls int
		standby   bool
	}{
		{2, 1, false},
		{8, 2, true},
	}
	// Three cells per shape: the baseline, the shared-cache run and the
	// private-cache run.
	cycles, err := runCells(3*len(shapes), func(i int) (uint64, error) {
		sh := shapes[i/3]
		if i%3 == 0 {
			mSeq, err := rt.NewMemory(rt.Seq, 1)
			if err != nil {
				return 0, err
			}
			base, err := RunRISC(RISCConfig{LoadStoreUnits: sh.ls}, rt.Seq.Text, mSeq)
			if err != nil {
				return 0, err
			}
			return base.Cycles, nil
		}
		private := i%3 == 2
		m, err := rt.NewMemory(rt.Par, sh.slots)
		if err != nil {
			return 0, err
		}
		res, err := RunMT(core.Config{
			ThreadSlots:     sh.slots,
			LoadStoreUnits:  sh.ls,
			StandbyStations: sh.standby,
			PrivateICache:   private,
		}, rt.Par.Text, m)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	var out []PrivateICacheCell
	for i, sh := range shapes {
		base := float64(cycles[3*i])
		out = append(out, PrivateICacheCell{
			Slots:          sh.slots,
			LoadStoreUnits: sh.ls,
			Standby:        sh.standby,
			SharedSpeedup:  base / float64(cycles[3*i+1]),
			PrivateSpeedup: base / float64(cycles[3*i+2]),
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
	m, err := rt.NewMemory(rt.Par, slots)
	if err != nil {
		return MTResult{}, err
	}
	return RunMT(core.Config{
		ThreadSlots:     slots,
		LoadStoreUnits:  lsUnits,
		StandbyStations: true,
	}, rt.Par.Text, m)
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
	runOne := func(nLines int) (uint64, error) {
		m, err := rt.NewMemory(rt.Par, slots)
		if err != nil {
			return 0, err
		}
		res, err := RunMT(core.Config{
			ThreadSlots:     slots,
			LoadStoreUnits:  2,
			StandbyStations: true,
			DCache:          mem.CacheConfig{Lines: nLines, WordsPerLine: 4, MissPenalty: 20},
		}, rt.Par.Text, m)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	// Cell 0 is the perfect cache; cells 1.. sweep the finite sizes.
	cycles, err := runCells(1+len(lines), func(i int) (uint64, error) {
		if i == 0 {
			return runOne(0)
		}
		return runOne(lines[i-1])
	})
	if err != nil {
		return nil, err
	}
	perfect := cycles[0]
	out := []FiniteCacheCell{{Lines: 0, Cycles: perfect, Speedup: 1}}
	for i, n := range lines {
		out = append(out, FiniteCacheCell{Lines: n, Cycles: cycles[i+1], Speedup: float64(perfect) / float64(cycles[i+1])})
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
	out, err := runCells(len(depths), func(i int) (QueueDepthCell, error) {
		d := depths[i]
		m, err := ll.NewMemory(ll.Par, slots)
		if err != nil {
			return QueueDepthCell{}, err
		}
		res, err := RunMT(core.Config{
			ThreadSlots:     slots,
			LoadStoreUnits:  1,
			StandbyStations: true,
			QueueDepth:      d,
		}, ll.Par.Text, m)
		if err != nil {
			return QueueDepthCell{}, fmt.Errorf("queue depth %d: %w", d, err)
		}
		return QueueDepthCell{Depth: d, CyclesPerIter: float64(res.Cycles) / float64(nodes)}, nil
	})
	if err != nil {
		return nil, err
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
	runOne := func(nf int, suppress bool) (ConcurrentMTCell, error) {
		m := NewMemoryWithRemote(8192, 4096, remoteLatency)
		for i := int64(4096); i < 8192; i++ {
			m.SetInt(i, i%97)
		}
		res, err := RunMT(core.Config{
			ThreadSlots:     1,
			ContextFrames:   nf,
			StandbyStations: true,
			// Explicit-rotation mode suppresses data-absence context
			// switches (§2.3.1), giving the stall-through baseline.
			ExplicitRotation: suppress,
		}, prog.Text, m, make([]int64, threads)...)
		if err != nil {
			return ConcurrentMTCell{}, fmt.Errorf("concurrent MT (%d frames, suppress=%v): %w", nf, suppress, err)
		}
		return ConcurrentMTCell{ContextFrames: nf, Suppressed: suppress, Cycles: res.Cycles, Switches: res.Switches}, nil
	}

	// Cell 0 is the stall-through baseline; cells 1.. enable switching.
	out, err := runCells(1+len(frames), func(i int) (ConcurrentMTCell, error) {
		if i == 0 {
			return runOne(threads, true)
		}
		return runOne(frames[i-1], false)
	})
	if err != nil {
		return nil, err
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

// unitClassName is re-exported for report rendering.
func unitClassName(u isa.UnitClass) string { return u.String() }

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
	// Cell 0 is the sequential baseline; then (slots, cap) pairs in order.
	cycles, err := runCells(1+2*len(slots), func(i int) (uint64, error) {
		if i == 0 {
			mSeq, err := rt.NewMemory(rt.Seq, 1)
			if err != nil {
				return 0, err
			}
			base, err := RunRISC(RISCConfig{LoadStoreUnits: 2}, rt.Seq.Text, mSeq)
			if err != nil {
				return 0, err
			}
			return base.Cycles, nil
		}
		s := slots[(i-1)/2]
		cap := (i - 1) % 2 // 0 = simultaneous, 1 = single-issue
		m, err := rt.NewMemory(rt.Par, s)
		if err != nil {
			return 0, err
		}
		res, err := RunMT(core.Config{
			ThreadSlots:      s,
			LoadStoreUnits:   2,
			StandbyStations:  true,
			MaxIssuePerCycle: cap,
		}, rt.Par.Text, m)
		if err != nil {
			return 0, fmt.Errorf("issue bandwidth (%d slots, cap %d): %w", s, cap, err)
		}
		return res.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	base := float64(cycles[0])
	var out []IssueBandwidthCell
	for i, s := range slots {
		simul, single := cycles[1+2*i], cycles[2+2*i]
		out = append(out, IssueBandwidthCell{
			Slots:              s,
			SimultaneousCycles: simul,
			SingleIssueCycles:  single,
			Simultaneous:       base / float64(simul),
			SingleIssue:        base / float64(single),
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
	// Cell 0 is the sequential baseline; cells 1.. sweep the slot counts.
	cycles, err := runCells(1+len(slots), func(i int) (uint64, error) {
		if i == 0 {
			mSeq, err := rc.NewMemory(rc.Seq, 1)
			if err != nil {
				return 0, err
			}
			base, err := RunRISC(RISCConfig{}, rc.Seq.Text, mSeq)
			if err != nil {
				return 0, err
			}
			return base.Cycles, nil
		}
		s := slots[i-1]
		m, err := rc.NewMemory(rc.Par, s)
		if err != nil {
			return 0, err
		}
		res, err := RunMT(core.Config{ThreadSlots: s, StandbyStations: true}, rc.Par.Text, m)
		if err != nil {
			return 0, fmt.Errorf("doacross (%d slots): %w", s, err)
		}
		return res.Cycles, nil
	})
	if err != nil {
		return nil, 0, err
	}
	var out []DoacrossCell
	for i, s := range slots {
		out = append(out, DoacrossCell{
			Slots:         s,
			Cycles:        cycles[i+1],
			CyclesPerIter: float64(cycles[i+1]) / float64(n),
			Speedup:       float64(cycles[0]) / float64(cycles[i+1]),
		})
	}
	return out, cycles[0], nil
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
	strats := []Strategy{ScheduleStrategyB, ScheduleSWP}
	out, err := runCells(len(slots)*len(strats), func(i int) (SWPAblationCell, error) {
		s := slots[i/len(strats)]
		strat := strats[i%len(strats)]
		lv, err := BuildLivermore(LivermoreConfig{N: n, Threads: s, Strategy: strat, LoadStoreUnits: 1})
		if err != nil {
			return SWPAblationCell{}, err
		}
		prog := lv.Par
		if s == 1 {
			prog = lv.Seq
		}
		m, err := prog.NewMemory(64)
		if err != nil {
			return SWPAblationCell{}, err
		}
		res, err := RunMT(core.Config{ThreadSlots: s, LoadStoreUnits: 1, StandbyStations: true}, prog.Text, m)
		if err != nil {
			return SWPAblationCell{}, fmt.Errorf("swp ablation (%v, %d slots): %w", strat, s, err)
		}
		return SWPAblationCell{
			Slots:         s,
			Strategy:      strat,
			CyclesPerIter: float64(res.Cycles) / float64(n),
			CodeSize:      len(prog.Text),
		}, nil
	})
	if err != nil {
		return nil, err
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
	// Cell 0 is the sequential baseline; cells 1.. sweep the depths.
	cycles, err := runCells(1+len(depths), func(i int) (uint64, error) {
		if i == 0 {
			mSeq, err := rt.NewMemory(rt.Seq, 1)
			if err != nil {
				return 0, err
			}
			base, err := RunRISC(RISCConfig{LoadStoreUnits: 1}, rt.Seq.Text, mSeq)
			if err != nil {
				return 0, err
			}
			return base.Cycles, nil
		}
		d := depths[i-1]
		m, err := rt.NewMemory(rt.Par, slots)
		if err != nil {
			return 0, err
		}
		res, err := RunMT(core.Config{
			ThreadSlots:     slots,
			LoadStoreUnits:  1,
			StandbyStations: true,
			StandbyDepth:    d,
		}, rt.Par.Text, m)
		if err != nil {
			return 0, fmt.Errorf("standby depth %d: %w", d, err)
		}
		return res.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	var out []StandbyDepthCell
	for i, d := range depths {
		out = append(out, StandbyDepthCell{
			Depth:   d,
			Cycles:  cycles[i+1],
			Speedup: float64(cycles[0]) / float64(cycles[i+1]),
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
	// Each (slots, unroll) cell builds its own program; run the grid on the
	// sweep engine.
	type spec struct{ s, u int }
	var specs []spec
	for _, s := range slots {
		for _, u := range unrolls {
			specs = append(specs, spec{s: s, u: u})
		}
	}
	return runCells(len(specs), func(i int) (UnrollCell, error) {
		sp := specs[i]
		lv, err := BuildLivermore(LivermoreConfig{
			N: n, Threads: sp.s, Strategy: ScheduleStrategyA, Unroll: sp.u, LoadStoreUnits: 1,
		})
		if err != nil {
			return UnrollCell{}, err
		}
		prog := lv.Par
		if sp.s == 1 {
			prog = lv.Seq
		}
		m, err := prog.NewMemory(64)
		if err != nil {
			return UnrollCell{}, err
		}
		res, err := RunMT(core.Config{ThreadSlots: sp.s, LoadStoreUnits: 1, StandbyStations: true}, prog.Text, m)
		if err != nil {
			return UnrollCell{}, fmt.Errorf("unroll %d (%d slots): %w", sp.u, sp.s, err)
		}
		return UnrollCell{Slots: sp.s, Unroll: sp.u, CyclesPerIter: float64(res.Cycles) / float64(n)}, nil
	})
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
	mkMem := func(threads int) (*Memory, error) {
		m, err := prog.NewMemory(64)
		if err != nil {
			return nil, err
		}
		m.SetInt(prog.MustSymbol("gthreadsbh"), int64(threads))
		base := prog.MustSymbol("vals")
		for i := int64(0); i < 96; i++ {
			m.SetInt(base+i, 3+i*7%97)
		}
		return m, nil
	}

	// Sequential baseline (same program, one thread, on the RISC machine —
	// ffork degrades on a 1-thread basis, so build a fork-free variant by
	// running the MT machine? No: the RISC machine rejects ffork, so the
	// baseline uses the multithreaded pipeline with one slot *and* the
	// RISC machine via a forkless program below).
	seqProg, err := Assemble(strings.Replace(branchySrc, "\tffork\n", "", 1))
	if err != nil {
		return nil, 0, err
	}

	// Cell 0 is the RISC baseline; then three fetch variants per slot count.
	variants := []struct {
		fetchUnits int
		private    bool
	}{{1, false}, {2, false}, {0, true}}
	cycles, err := runCells(1+len(slots)*len(variants), func(i int) (uint64, error) {
		if i == 0 {
			mSeq, err := seqProg.NewMemory(64)
			if err != nil {
				return 0, err
			}
			mSeq.SetInt(seqProg.MustSymbol("gthreadsbh"), 1)
			base := seqProg.MustSymbol("vals")
			for j := int64(0); j < 96; j++ {
				mSeq.SetInt(base+j, 3+j*7%97)
			}
			seq, err := RunRISC(RISCConfig{}, seqProg.Text, mSeq)
			if err != nil {
				return 0, err
			}
			return seq.Cycles, nil
		}
		s := slots[(i-1)/len(variants)]
		variant := variants[(i-1)%len(variants)]
		m, err := mkMem(s)
		if err != nil {
			return 0, err
		}
		res, err := RunMT(core.Config{
			ThreadSlots:     s,
			StandbyStations: true,
			FetchUnits:      variant.fetchUnits,
			PrivateICache:   variant.private,
		}, prog.Text, m)
		if err != nil {
			return 0, fmt.Errorf("branch hiding (%d slots): %w", s, err)
		}
		return res.Cycles, nil
	})
	if err != nil {
		return nil, 0, err
	}
	seqCycles := cycles[0]
	var out []BranchHidingCell
	for si, s := range slots {
		cell := BranchHidingCell{Slots: s}
		for vi, variant := range variants {
			c := cycles[1+si*len(variants)+vi]
			sp := float64(seqCycles) / float64(c)
			switch {
			case variant.private:
				cell.PrivateSpeedup = sp
			case variant.fetchUnits == 2:
				cell.TwoFetch = sp
			default:
				cell.Cycles = c
				cell.Speedup = sp
				cell.PerThreadEff = sp / float64(s)
			}
		}
		out = append(out, cell)
	}
	return out, seqCycles, nil
}
