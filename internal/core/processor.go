package core

import (
	"fmt"
	"math"
	"strings"

	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// pendingReady marks a scoreboard entry or queue entry whose producer has
// been issued but not yet selected by an instruction schedule unit.
const pendingReady = math.MaxUint64

// frameState is the lifecycle of a context frame (one thread).
type frameState uint8

const (
	frameFree    frameState = iota // no thread assigned
	frameReady                     // runnable, waiting for a thread slot
	frameRunning                   // bound to a thread slot
	frameWaiting                   // switched out on a data-absence trap
	frameDone                      // halted or killed
)

// contextFrame bundles a register bank, the instruction address save
// register, the thread status, the per-bank scoreboard and the access
// requirement buffer (§2.1.3).
type contextFrame struct {
	id        int
	tid       int64
	traceID   int // index into Processor.traces; -1 in execution-driven mode
	state     frameState
	regs      exec.RegFile
	pc        int64 // instruction address save register
	readyAt   [isa.NumIntRegs + isa.NumFPRegs]uint64
	arb       mem.AccessRequirementBuffer
	waitUntil uint64         // when the remote data arrives
	satisfied map[int64]bool // remote addresses now locally available
	arbSeq    uint64         // sequence source for arb entries
}

// frameLive reports whether a frame state counts toward liveFrames: the
// states that keep the simulation running (ready, running or waiting).
func frameLive(st frameState) bool {
	return st == frameReady || st == frameRunning || st == frameWaiting
}

// sbIndex maps a register to its scoreboard slot.
func sbIndex(r isa.Reg) int {
	if r.IsFP() {
		return isa.NumIntRegs + r.Index()
	}
	return r.Index()
}

// scoreboardReady reports whether register r is free of pending writes at
// the given cycle.
func (f *contextFrame) scoreboardReady(r isa.Reg, cycle uint64) bool {
	if !r.Valid() || (r.IsInt() && r.Index() == 0) {
		return true
	}
	return f.readyAt[sbIndex(r)] <= cycle
}

// markPending flags r busy until the producing instruction is scheduled.
func (f *contextFrame) markPending(r isa.Reg) {
	if r.Valid() && !(r.IsInt() && r.Index() == 0) {
		f.readyAt[sbIndex(r)] = pendingReady
	}
}

// setReady records the cycle at which r's pending write completes.
func (f *contextFrame) setReady(r isa.Reg, cycle uint64) {
	if r.Valid() && !(r.IsInt() && r.Index() == 0) {
		f.readyAt[sbIndex(r)] = cycle
	}
}

// reset clears the frame for reuse by a new thread.
func (f *contextFrame) reset() {
	f.regs.Reset()
	f.pc = 0
	f.readyAt = [isa.NumIntRegs + isa.NumFPRegs]uint64{}
	f.arb.Clear()
	f.waitUntil = 0
	f.satisfied = nil
	f.state = frameFree
}

// slotState is the lifecycle of a thread slot (logical processor).
type slotState uint8

const (
	slotIdle     slotState = iota // no context frame bound
	slotRunning                   // executing a thread
	slotDraining                  // waiting for issued instructions before a context switch
)

// bufEntry is one instruction in a slot's instruction queue unit: the
// decoded-instruction payload plus the cycle gate for entering decode.
type bufEntry struct {
	d     dinstr
	minD1 uint64 // earliest cycle the entry may enter decode stage D1
}

// dinstr is an instruction occupying a decode stage.
type dinstr struct {
	pc      int64
	ins     isa.Instruction
	pre     *insMeta // predecoded metadata for ins
	fromARB bool
	arbSeq  uint64
	addr    int64 // recorded effective address (trace-driven mode)
}

// inflight is an issued instruction waiting in a standby station (or the
// issue latch) for an instruction schedule unit to select it. Its
// architectural effects are already applied; only timing remains.
type inflight struct {
	ins      isa.Instruction
	pre      *insMeta // predecoded metadata for ins
	pc       int64
	slot     int
	frame    int
	class    isa.UnitClass
	dest     isa.Reg // NoReg if none or queue-mapped
	push     *qentry // reserved queue entry to stamp at select time
	extraLat int     // additional result latency (cache miss, remote access)
}

// slot is one thread slot: instruction queue unit + decode unit + program
// counter, forming a logical processor.
type slot struct {
	id          int
	state       slotState
	frame       int // bound context frame id, -1 when idle
	buf         insRing
	bufCap      int
	fetchPC     int64
	fetchGen    uint64      // invalidates in-flight fetches after a flush
	fetchDone   bool        // fetchPC ran past the program end
	d1n         int         // buffer-front entries occupying decode stage D1 (see advanceSlot)
	stallUntil  uint64      // head-of-D2 stall deadline, 0 = none (see cacheHeadStall)
	stallReason StallReason // cached stall's per-cycle tally reason
	d2          []dinstr
	standby     [unitClassCount][]*inflight // FIFO per class, cap = StandbyDepth
	latch       *inflight                   // used when standby stations are disabled
	outstanding int                         // selected instructions not yet completed
	bindReadyAt uint64                      // context-switch rebinding delay
	// fetchHoldUntil keeps the fetch unit away from this slot until a
	// branch redirect becomes eligible, so the refetch cannot start in the
	// resolution cycle itself (the decode-to-decode branch distance is 5).
	fetchHoldUntil uint64

	// Queue register mappings (NoReg = unmapped).
	qInInt, qOutInt isa.Reg
	qInFP, qOutFP   isa.Reg
}

// flushPipeline empties the decode stages and instruction queue buffer.
func (s *slot) flushPipeline() {
	s.buf.reset()
	s.d1n = 0
	s.stallUntil = 0
	s.d2 = s.d2[:0]
	s.fetchGen++
}

// issuedEmpty reports whether no issued instruction awaits scheduling.
func (s *slot) issuedEmpty() bool {
	if s.latch != nil {
		return false
	}
	for _, st := range s.standby {
		if len(st) > 0 {
			return false
		}
	}
	return true
}

// unmapQueues clears all queue register mappings.
func (s *slot) unmapQueues() {
	s.qInInt, s.qOutInt = isa.NoReg, isa.NoReg
	s.qInFP, s.qOutFP = isa.NoReg, isa.NoReg
}

// funcUnit is one functional unit instance.
type funcUnit struct {
	class     isa.UnitClass
	index     int
	busyUntil uint64 // last cycle of the current issue-latency occupancy
	stat      UnitStat
}

// redirectReq asks the fetch unit to serve a slot after a branch.
type redirectReq struct {
	slot          int
	gen           uint64
	earliestStart uint64
}

// fetchUnit models the (shared or per-slot) instruction fetch unit.
type fetchUnit struct {
	icache    *mem.Cache
	busy      bool
	busyUntil uint64
	target    int
	gen       uint64
	pc0, pc1  int64 // pending delivery: stream range [pc0, pc1)
	redirects []redirectReq
	rr        int    // round-robin position
	slotMask  uint64 // slots served by this unit (round-robin assignment)
}

// Processor is one multithreaded physical processor.
type Processor struct {
	cfg      Config
	prog     []isa.Instruction
	pre      []insMeta // predecoded metadata, parallel to prog
	traceIdx [][]int32 // trace mode: per-record positions in prog (internTraces)
	mem      *mem.Memory
	dcache   *mem.Cache

	cycle    uint64
	slots    []*slot
	frames   []*contextFrame
	readyQ   []int // frame ids ready to run, FIFO
	prio     []int // slot ids, highest priority first
	explicit bool
	rotCount uint64 // rotateOnce invocations; guards decodeAndAdvance's prio iteration

	// Live aggregates kept in sync by setFrameState/setSlotState and the
	// issue/select paths. They replace the per-cycle finished()/wakeFrames()
	// scans and feed the quiescent-cycle horizon (skip.go).
	liveFrames    int         // frames in ready/running/waiting states
	runningSlots  int         // slots in slotRunning
	drainingSlots int         // slots in slotDraining
	issuedPending int         // standby/latch entries not yet selected
	waitHeap      []frameWake // min-heap of (waitUntil, frame id)
	nextRotation  uint64      // next implicit-rotation boundary (multiple of RotationInterval)
	stepsExecuted uint64      // stepCycle invocations (cycle-skip effectiveness metric)

	// Event-driven dirty sets (event.go). evNear/evFar form the
	// pending-event set (a 64-cycle timing-wheel bitmap plus an overflow
	// min-heap) holding future cycles at which timed state changes;
	// classMask[cls], classDirty and fetchable are per-structure dirty
	// bitmaps maintained at the mutation sites.
	evNear           uint64                 // bit k = event at cycle+1+k (k < 64)
	evFar            []uint64               // min-heap of events beyond the near window
	classMask        [unitClassCount]uint64 // slots with issued-but-unselected work, per class
	classDirty       uint32                 // bit cls set iff classMask[cls] != 0
	fetchable        uint64                 // slots whose queue buffer wants a fill
	busyFetchers     int                    // fetch units mid-access
	pendingRedirects int                    // queued branch-redirect requests
	infPool          []*inflight            // in-flight entry free list
	ictx             issueCtx               // reusable exec.Context for the issue path
	prioIdx          []uint8                // slot id -> rank in prio (rebuilt on rotation)

	units      []*funcUnit
	unitsByCls [unitClassCount][]*funcUnit
	fetchers   []*fetchUnit // one if shared, one per slot if private
	// completions is a ring of per-cycle completion lists, sized to the
	// maximum possible result latency (Table 1 + remote + cache miss).
	completions [][]int
	compMask    uint64
	// compDetail mirrors completions with the facts Observer.Complete
	// reports. Allocated lazily by Run only when an observer is attached,
	// so the nil-observer hot loop never touches it.
	compDetail [][]compDetail
	intQueues  []*queueFIFO // ring link read by slot i
	fpQueues   []*queueFIFO

	outstanding int // total selected-but-incomplete instructions
	nextTID     int64
	fetchMax    int // B: instructions delivered per fetch access

	// Trace-driven mode (the paper's §3 methodology): each thread replays
	// a recorded dynamic instruction stream; decode performs all timing
	// interlocks but no architectural execution. prog and pre then hold
	// each distinct traced instruction once, and record k of traces[i] is
	// prog[traceIdx[i][k]].
	traceMode bool
	traces    [][]TraceInput

	issueBudget int // per-cycle issue budget (MaxIssuePerCycle)

	// Reusable per-cycle scratch buffers (the simulator is single-
	// threaded; these avoid per-cycle allocations).
	freeUnits    []*funcUnit
	pendScratch  []isa.Reg
	pendScratch2 []isa.Reg
	idxScratch   []int

	stats     Result
	started   bool
	lastEvent uint64 // cycle of the latest architectural activity

	observer Observer // optional rich event sink (see Observe)

	// Host-side self-observability (hostprobe.go). hostProbe is the
	// optional probe; hostSampled flags that the probe elected to sample
	// the step in flight, gating its phase-boundary callbacks so the
	// disabled path costs one nil check per step plus predictable
	// always-false branches.
	hostProbe   HostProbe
	hostSampled bool
}

// compDetail carries one completing instruction to Observer.Complete.
type compDetail struct {
	slot      int
	pc        int64
	ins       isa.Instruction
	unit      isa.UnitClass
	unitIndex int
}

// TraceInput is one record of a dynamic instruction stream for
// trace-driven simulation: the instruction plus the effective address of
// memory operations (register values are not replayed, so addresses must
// be recorded). Branch records always redirect the stream to the next
// trace entry; the flush penalty models the machine's lack of branch
// prediction, exactly as in execution-driven mode.
type TraceInput struct {
	Ins  isa.Instruction
	Addr int64
}

// NewTraceDriven builds a processor that replays one recorded instruction
// stream per thread (the paper's trace-driven methodology). Thread i
// replays traces[i]; ContextFrames is raised to the thread count if
// needed. The traces may contain only ordinary instructions, branches and
// a final HALT — the multithreading-control opcodes describe interactions
// a linear trace cannot capture. A slice passed for several threads is
// validated and indexed once. Call Run directly; StartThread is not used
// in this mode.
func NewTraceDriven(cfg Config, traces [][]TraceInput) (*Processor, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: no traces")
	}
	if cfg.ContextFrames < len(traces) {
		cfg.ContextFrames = len(traces)
	}
	prog, idx, err := internTraces(traces)
	if err != nil {
		return nil, err
	}
	p, err := New(cfg, prog, mem.NewMemory(1))
	if err != nil {
		return nil, err
	}
	p.traceMode = true
	p.traces = traces
	p.traceIdx = idx
	for i := range traces {
		f := p.frames[i]
		p.setFrameState(f, frameReady)
		f.traceID = i
		f.tid = int64(i)
		p.readyQ = append(p.readyQ, f.id)
	}
	p.nextTID = int64(len(traces))
	return p, nil
}

// internTraces validates the traces and returns the table of their
// distinct instructions, in first-seen order, plus one index per trace
// mapping each record to its table entry. A trace, replayed on every slot,
// holds far fewer distinct instructions than records, so New predecodes
// a small table. Copies of a trace (the same backing array and length)
// are validated and indexed once and share one index slice.
func internTraces(traces [][]TraceInput) ([]isa.Instruction, [][]int32, error) {
	type sliceID struct {
		first *TraceInput
		n     int
	}
	copies := make(map[sliceID][]int32)
	// Keyed by exact value, not Instruction.Same: replay then sees every
	// record's instruction exactly as recorded.
	pos := make(map[isa.Instruction]int32)
	var prog []isa.Instruction
	idx := make([][]int32, len(traces))
	for t, tr := range traces {
		if len(tr) == 0 {
			return nil, nil, fmt.Errorf("core: trace %d is empty", t)
		}
		id := sliceID{&tr[0], len(tr)}
		if ix, ok := copies[id]; ok {
			idx[t] = ix
			continue
		}
		ix := make([]int32, len(tr))
		for i, rec := range tr {
			k, ok := pos[rec.Ins]
			if !ok {
				// The first occurrence of each distinct instruction is the
				// first record that a per-record check would reject.
				switch rec.Ins.Op {
				case isa.FFORK, isa.KILL, isa.CHGPRI, isa.QEN, isa.QENF, isa.QDIS, isa.SETMODE, isa.SWP, isa.FSWP, isa.TID:
					return nil, nil, fmt.Errorf("core: trace %d record %d: %s cannot be replayed from a trace", t, i, rec.Ins.Op)
				}
				k = int32(len(prog))
				pos[rec.Ins] = k
				prog = append(prog, rec.Ins)
			}
			ix[i] = k
		}
		copies[id] = ix
		idx[t] = ix
	}
	return prog, idx, nil
}

// New builds a processor for the given program and data memory.
func New(cfg Config, prog []isa.Instruction, m *mem.Memory) (*Processor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, fmt.Errorf("core: empty program")
	}
	p := &Processor{
		cfg:    cfg,
		prog:   prog,
		pre:    predecode(prog),
		mem:    m,
		dcache: mem.NewCache(cfg.DCache),
	}
	p.nextRotation = uint64(cfg.RotationInterval)
	maxLat := 32 + m.RemoteLatency() + cfg.DCache.MissPenalty + mem.CacheAccessCycles
	ringSize := 64
	for ringSize < maxLat+2 {
		ringSize *= 2
	}
	p.completions = make([][]int, ringSize)
	p.compMask = uint64(ringSize - 1)
	// The paper sizes the queue buffer at B = S×C words minimum and fetches
	// at most B instructions per access; we give the buffer 2×B so a fetch
	// can overlap the draining of the previous block.
	p.fetchMax = cfg.ThreadSlots * mem.CacheAccessCycles * cfg.IssueWidth
	if p.fetchMax < 2 {
		p.fetchMax = 2
	}
	bufCap := 2 * p.fetchMax
	for i := 0; i < cfg.ThreadSlots; i++ {
		s := &slot{id: i, frame: -1, bufCap: bufCap}
		s.unmapQueues()
		p.slots = append(p.slots, s)
		p.prio = append(p.prio, i)
		p.prioIdx = append(p.prioIdx, uint8(i))
	}
	for i := 0; i < cfg.ContextFrames; i++ {
		p.frames = append(p.frames, &contextFrame{id: i, traceID: -1})
	}
	for cls := isa.UnitClass(1); int(cls) < unitClassCount; cls++ {
		for k := 0; k < cfg.unitCount(cls); k++ {
			u := &funcUnit{class: cls, index: k, stat: UnitStat{Class: cls, Index: k}}
			p.units = append(p.units, u)
			p.unitsByCls[cls] = append(p.unitsByCls[cls], u)
		}
	}
	// Scratch for schedulePhase's free-unit scan; sized to the largest
	// class so the hot loop never reallocates it.
	for _, us := range p.unitsByCls {
		if len(us) > cap(p.freeUnits) {
			p.freeUnits = make([]*funcUnit, 0, len(us))
		}
	}
	for i := 0; i < cfg.FetchUnits; i++ {
		fu := &fetchUnit{icache: mem.NewCache(cfg.ICache), target: -1}
		// Bitmask of the slots this unit serves (round-robin assignment),
		// intersected with the fetchable dirty set to elide idle units.
		for id := i; id < cfg.ThreadSlots; id += cfg.FetchUnits {
			fu.slotMask |= slotBit(id)
		}
		p.fetchers = append(p.fetchers, fu)
	}
	p.explicit = cfg.ExplicitRotation
	p.stats.Slots = make([]SlotStat, cfg.ThreadSlots)
	p.initQueues()
	return p, nil
}

// StartThread registers a runnable thread beginning at pc. Threads are
// assigned to slots in registration order at cycle 0 (and later, whenever a
// slot frees up). Must be called before Run.
func (p *Processor) StartThread(pc int64) error {
	if p.started {
		return fmt.Errorf("core: StartThread after Run")
	}
	if p.traceMode {
		return fmt.Errorf("core: StartThread is not used in trace-driven mode")
	}
	if pc < 0 || pc >= int64(len(p.prog)) {
		return fmt.Errorf("core: start pc %d outside program", pc)
	}
	for _, f := range p.frames {
		if f.state == frameFree {
			p.setFrameState(f, frameReady)
			f.pc = pc
			f.tid = p.nextTID
			p.nextTID++
			p.readyQ = append(p.readyQ, f.id)
			return nil
		}
	}
	return fmt.Errorf("core: no free context frame for thread (have %d)", len(p.frames))
}

// concurrentOn reports whether data-absence traps switch contexts.
func (p *Processor) concurrentOn() bool {
	return p.cfg.ContextFrames > p.cfg.ThreadSlots
}

// setFrameState transitions a frame's lifecycle state while keeping the
// liveFrames counter exact. Every state change after construction must go
// through here (frame.reset is exempt: it only runs on free/done frames).
func (p *Processor) setFrameState(f *contextFrame, st frameState) {
	if frameLive(f.state) != frameLive(st) {
		if frameLive(st) {
			p.liveFrames++
		} else {
			p.liveFrames--
		}
	}
	f.state = st
}

// setSlotState transitions a slot's lifecycle state while keeping the
// runningSlots/drainingSlots counters and the fetchable dirty set exact.
// A transition out of slotRunning schedules an event for the next cycle:
// it may expose a fully-drained slot to the unbind check, a ready frame to
// an idle slot, or a standby entry to an idle unit — all at cycle+1, the
// horizon floor.
func (p *Processor) setSlotState(s *slot, st slotState) {
	if s.state == slotRunning && st != slotRunning {
		p.pushEv(p.cycle + 1)
	}
	switch s.state {
	case slotRunning:
		p.runningSlots--
	case slotDraining:
		p.drainingSlots--
	}
	switch st {
	case slotRunning:
		p.runningSlots++
	case slotDraining:
		p.drainingSlots++
	}
	s.state = st
	p.refreshFetchable(s)
}

// frameWake is one waitUntil deadline in the wake heap. Entries order by
// (when, id) so that frames waking in the same cycle enter the ready queue
// in frame-id order, exactly as the previous full scan did. Entries can go
// stale (the frame was killed before its data arrived); wakeFrames and the
// quiescent horizon tolerate them — a stale deadline can only make the
// horizon earlier, never later, so it costs one extra step at worst.
type frameWake struct {
	when uint64
	id   int
}

func wakeLess(a, b frameWake) bool {
	return a.when < b.when || (a.when == b.when && a.id < b.id)
}

// pushWait records a frame's wake deadline in the min-heap.
func (p *Processor) pushWait(when uint64, id int) {
	h := append(p.waitHeap, frameWake{when: when, id: id})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !wakeLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	p.waitHeap = h
}

// popWait removes and returns the earliest wake deadline.
func (p *Processor) popWait() frameWake {
	h := p.waitHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && wakeLess(h[l], h[small]) {
			small = l
		}
		if r < n && wakeLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	p.waitHeap = h
	return top
}

// Run simulates until every thread has finished, and returns statistics.
func (p *Processor) Run() (Result, error) {
	if p.started {
		return Result{}, fmt.Errorf("core: Run called twice")
	}
	if len(p.readyQ) == 0 {
		if err := p.StartThread(0); err != nil {
			return Result{}, err
		}
	}
	p.started = true
	if p.observer != nil {
		p.compDetail = make([][]compDetail, len(p.completions))
	}
	for {
		if p.cycle >= p.cfg.MaxCycles {
			return p.stats, fmt.Errorf("core: exceeded %d cycles (deadlock or runaway program?)\n%s",
				p.cfg.MaxCycles, p.snapshot())
		}
		if err := p.stepCycle(); err != nil {
			return p.stats, err
		}
		if p.finished() {
			break
		}
		p.advanceCycle()
	}
	p.stats.Cycles = p.lastEvent + 1
	for _, u := range p.units {
		p.stats.Units = append(p.stats.Units, u.stat)
	}
	if p.hostProbe != nil {
		p.hostProbe.RunEnd(p.stats.Cycles, p.stepsExecuted)
	}
	return p.stats, nil
}

// stepCycle advances the machine by one cycle, in reverse pipeline order so
// that each stage sees the previous cycle's downstream state. Sampled and
// unsampled steps run the same phases; a sampled step only adds the host
// probe's phase-boundary callbacks.
func (p *Processor) stepCycle() error {
	p.stepsExecuted++
	running := p.runningSlots
	if p.hostProbe != nil {
		p.hostSampled = p.hostProbe.StepStart(p.cycle)
	}
	p.rotatePriorities()
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseRotation)
	}
	p.retireCompletions()
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseCompletion)
	}
	p.wakeFrames()
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseWake)
	}
	p.bindSlots()
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseBind)
	}
	p.schedulePhase()
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseSelect)
	}
	if err := p.decodeAndAdvance(); err != nil {
		return err
	}
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseDecode)
	}
	p.fetchPhase()
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseFetch)
		p.hostProbe.StepEnd(TouchSample{Cycle: p.cycle, RunningSlots: uint64(running)})
	}
	return nil
}

// finished reports whether the simulation is complete. It consults only
// live counters — O(1) per cycle instead of a frame+slot scan, which
// TestFinishedMatchesScan keeps as the reference. Decode stages
// of non-idle slots need no separate check: d1/d2 are flushed on every
// transition to idle, and non-idle slots show up in the slot counters.
func (p *Processor) finished() bool {
	return p.outstanding == 0 && p.issuedPending == 0 && len(p.readyQ) == 0 &&
		p.liveFrames == 0 && p.runningSlots == 0 && p.drainingSlots == 0
}

// rotatePriorities applies implicit-rotation mode (§2.2). Rotation
// boundaries are the multiples of RotationInterval; instead of a modulo
// per cycle, nextRotation holds the next boundary as an absolute cycle
// number. A boundary is consumed even in explicit mode (matching the old
// modulo check: a SETMODE flip back to implicit resumes on the original
// period, not a shifted one).
func (p *Processor) rotatePriorities() {
	if p.cycle != p.nextRotation {
		return
	}
	p.nextRotation += uint64(p.cfg.RotationInterval)
	if p.explicit {
		return
	}
	p.rotateOnce(p.cycle)
}

// rotateOnce moves the highest-priority slot to the lowest position and
// reports the rotation as happening at cycle.
func (p *Processor) rotateOnce(cycle uint64) {
	if len(p.prio) < 2 {
		return
	}
	head := p.prio[0]
	copy(p.prio, p.prio[1:])
	p.prio[len(p.prio)-1] = head
	p.rotCount++
	for r, id := range p.prio {
		p.prioIdx[id] = uint8(r)
	}
	if p.observer != nil {
		p.observer.Rotate(cycle, p.prio)
	}
}

// highestActiveSlot returns the highest-priority slot currently running a
// thread, or -1. Idle slots are skipped so that priority-interlocked
// instructions cannot deadlock behind a finished thread.
func (p *Processor) highestActiveSlot() int {
	for _, id := range p.prio {
		if p.slots[id].state == slotRunning || p.slots[id].state == slotDraining {
			return id
		}
	}
	return -1
}

// retireCompletions credits instructions whose result latency elapsed.
func (p *Processor) retireCompletions() {
	idx := p.cycle & p.compMask
	for _, id := range p.completions[idx] {
		p.slots[id].outstanding--
		p.outstanding--
	}
	p.completions[idx] = p.completions[idx][:0]
	if p.compDetail != nil {
		for _, d := range p.compDetail[idx] {
			p.observer.Complete(p.cycle, d.slot, d.pc, d.ins, d.unit, d.unitIndex)
		}
		p.compDetail[idx] = p.compDetail[idx][:0]
	}
}

// wakeFrames transitions waiting frames whose remote data has arrived.
// Deadlines come from the wait heap instead of a full frame scan; stale
// entries (frame killed, or re-trapped with a later deadline) are skipped.
// (when, id) heap order reproduces the scan's frame-id wake order for
// frames sharing a deadline.
func (p *Processor) wakeFrames() {
	for len(p.waitHeap) > 0 && p.waitHeap[0].when <= p.cycle {
		fw := p.popWait()
		f := p.frames[fw.id]
		if f.state != frameWaiting || f.waitUntil != fw.when {
			continue // stale deadline
		}
		p.setFrameState(f, frameReady)
		p.readyQ = append(p.readyQ, f.id)
		p.touch(p.cycle)
	}
}

// bindSlots assigns ready frames to idle slots. Each loop is gated on its
// work set: the bind scan needs both a ready frame and an idle slot, the
// unbind scan needs a draining slot. The gates are exact: the loops are
// no-ops without those conditions.
func (p *Processor) bindSlots() {
	idleSlots := len(p.slots) - p.runningSlots - p.drainingSlots
	if len(p.readyQ) > 0 && idleSlots > 0 {
		for _, s := range p.slots {
			if s.state != slotIdle || p.cycle < s.bindReadyAt || len(p.readyQ) == 0 {
				continue
			}
			fid := p.readyQ[0]
			p.readyQ = p.readyQ[1:]
			p.bindFrame(s, p.frames[fid])
		}
	}
	// Complete pending context switches: a draining slot unbinds once its
	// issued instructions have been performed (§2.1.3).
	if p.drainingSlots > 0 {
		for _, s := range p.slots {
			if s.state != slotDraining {
				continue
			}
			if s.outstanding == 0 && s.issuedEmpty() {
				p.setSlotState(s, slotIdle)
				s.frame = -1
				s.bindReadyAt = p.cycle + uint64(p.cfg.ContextSwitchCycles)
				// The freshly idle slot can take a ready frame once the
				// rebind delay elapses.
				p.pushEv(s.bindReadyAt)
				p.touch(s.bindReadyAt)
			}
		}
	}
}

// bindFrame binds frame f to slot s and restarts its instruction stream,
// re-injecting any outstanding access requirements first.
func (p *Processor) bindFrame(s *slot, f *contextFrame) {
	p.setFrameState(f, frameRunning)
	p.setSlotState(s, slotRunning)
	s.frame = f.id
	s.flushPipeline()
	s.fetchPC = f.pc
	s.fetchDone = f.pc >= p.streamLen(f)
	for _, req := range f.arb.Pending() {
		// ARB re-injection happens only in execution-driven mode (traps
		// cannot occur during trace replay), so program metadata applies.
		s.buf.push(bufEntry{
			d:     dinstr{pc: req.PC, ins: req.Instr, pre: &p.pre[req.PC], fromARB: true, arbSeq: req.Seq},
			minD1: p.cycle + 1,
		})
	}
	p.refreshFetchable(s)
	if p.observer != nil {
		p.observer.Bind(p.cycle, s.id, f.id, f.tid)
	}
	p.touch(p.cycle)
}

// streamLen returns the length of the instruction stream a frame runs:
// the program text, or the frame's trace in trace-driven mode.
func (p *Processor) streamLen(f *contextFrame) int64 {
	if p.traceMode && f.traceID >= 0 {
		return int64(len(p.traces[f.traceID]))
	}
	return int64(len(p.prog))
}

// touch records architectural activity for the total-cycle metric.
func (p *Processor) touch(cycle uint64) {
	if cycle > p.lastEvent {
		p.lastEvent = cycle
	}
}

// snapshot renders a short machine-state dump for deadlock diagnostics.
func (p *Processor) snapshot() string {
	var out strings.Builder
	for _, s := range p.slots {
		fmt.Fprintf(&out, "slot %d: state=%d frame=%d buf=%d d1=%d d2=%d outstanding=%d",
			s.id, s.state, s.frame, s.buf.len()-s.d1n, s.d1n, len(s.d2), s.outstanding)
		if len(s.d2) > 0 {
			fmt.Fprintf(&out, " d2head=%q(pc=%d)", s.d2[0].ins.String(), s.d2[0].pc)
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// Cycle returns the current cycle (for tests).
func (p *Processor) Cycle() uint64 { return p.cycle }

// Frame returns a context frame's register bank and thread id (for tests
// and result extraction after Run).
func (p *Processor) Frame(i int) (*exec.RegFile, int64) {
	return &p.frames[i].regs, p.frames[i].tid
}

// Mem returns the data memory the processor operates on.
func (p *Processor) Mem() *mem.Memory { return p.mem }
