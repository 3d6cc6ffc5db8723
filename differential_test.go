package hirata

// Differential proofs for the performance layers described in
// docs/PERFORMANCE.md:
//
//   - quiescent-cycle skipping must be invisible: every workload produces a
//     bit-identical Result and final memory image with the skip disabled
//     (MTConfig.DisableCycleSkip) and enabled;
//   - the event-driven cycle core must be invisible: the same workloads,
//     plus every MinC program shipped under examples/programs, reproduce
//     the Results, memory images and metrics report recorded from the
//     legacy scan-everything loop (legacy_golden_test.go);
//   - the parallel sweep engine must be invisible: experiment runners
//     produce byte-identical output at any parallelism;
//   - observing must be invisible: an observed run executes exactly as the
//     bare run does, quiescent skipping included, and reports the event
//     stream of the cycle-by-cycle reference;
//   - on one slot the RISC baseline is an exact timing oracle for the
//     multithreaded core (TestRISCTimingIdentity).

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/obs"
)

// memWords snapshots the full memory image.
func memWords(t *testing.T, m *Memory) []uint64 {
	t.Helper()
	out := make([]uint64, m.Size())
	for a := int64(0); a < m.Size(); a++ {
		v, err := m.Load(a)
		if err != nil {
			t.Fatal(err)
		}
		out[a] = v
	}
	return out
}

// runSkipDifferential runs the same program twice — cycle skip disabled,
// then enabled — and requires identical Results and memory images.
func runSkipDifferential(t *testing.T, cfg MTConfig, text []Instruction, mkMem func() (*Memory, error), startPCs ...int64) {
	t.Helper()
	var results [2]MTResult
	var mems [2][]uint64
	for i, disable := range []bool{true, false} {
		c := cfg
		c.DisableCycleSkip = disable
		m, err := mkMem()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunMT(c, text, m, startPCs...)
		if err != nil {
			t.Fatalf("DisableCycleSkip=%v: %v", disable, err)
		}
		results[i] = res
		mems[i] = memWords(t, m)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("Result differs with cycle skip:\n  off: %+v\n  on:  %+v", results[0], results[1])
	}
	if !reflect.DeepEqual(mems[0], mems[1]) {
		t.Error("final memory image differs with cycle skip")
	}
}

func TestCycleSkipDifferentialFib(t *testing.T) {
	prog := loadProgram(t, "fib.s")
	runSkipDifferential(t, MTConfig{ThreadSlots: 1, StandbyStations: true},
		prog.Text, func() (*Memory, error) { return prog.NewMemory(128) })
}

func TestCycleSkipDifferentialSort(t *testing.T) {
	prog := loadProgram(t, "sort.s")
	runSkipDifferential(t, MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true},
		prog.Text, func() (*Memory, error) { return prog.NewMemory(64) })
}

func TestCycleSkipDifferentialRadiosity(t *testing.T) {
	rd, err := BuildRadiosity(RadiosityConfig{Patches: 12, Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	runSkipDifferential(t, MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true},
		rd.Prog.Text, func() (*Memory, error) { return rd.NewMemory(8) })
}

func TestCycleSkipDifferentialRayTrace(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 16, Spheres: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{2, 8} {
		runSkipDifferential(t, MTConfig{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true},
			rt.Par.Text, func() (*Memory, error) { return rt.NewMemory(rt.Par, slots) })
	}
}

// concurrentMTMem is concurrentMTSrc's memory: a remote region from word
// 4096 on, 300 cycles away, holding the threads' chained-load data.
func concurrentMTMem() (*Memory, error) {
	m := NewMemoryWithRemote(8192, 4096, 300)
	for i := int64(4096); i < 8192; i++ {
		m.SetInt(i, i%97)
	}
	return m, nil
}

// TestCycleSkipDifferentialConcurrentMT is the case the skip is built for:
// high remote latency with more context frames than thread slots, so long
// quiescent stretches alternate with data-absence context switches.
func TestCycleSkipDifferentialConcurrentMT(t *testing.T) {
	prog, err := Assemble(concurrentMTSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Four threads on one slot with four frames (switching on), and the
	// stall-through variant with switching suppressed.
	for _, suppress := range []bool{false, true} {
		runSkipDifferential(t, MTConfig{
			ThreadSlots:      1,
			ContextFrames:    4,
			StandbyStations:  true,
			ExplicitRotation: suppress,
		}, prog.Text, concurrentMTMem, 0, 0, 0, 0)
	}
}

func TestCycleSkipDifferentialTraceReplay(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 8, Spheres: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.NewMemory(rt.Seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordTrace(rt.Seq.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	traces := [][]TraceRecord{recs, recs, recs, recs}
	var results [2]MTResult
	for i, disable := range []bool{true, false} {
		res, err := ReplayTraces(MTConfig{
			ThreadSlots:      4,
			LoadStoreUnits:   2,
			StandbyStations:  true,
			DisableCycleSkip: disable,
		}, traces, RunOptions{})
		if err != nil {
			t.Fatalf("DisableCycleSkip=%v: %v", disable, err)
		}
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("trace replay Result differs with cycle skip:\n  off: %+v\n  on:  %+v", results[0], results[1])
	}
}

// observedRun is the outcome of one run of a golden case.
type observedRun struct {
	res    MTResult
	err    string
	memory string // sha256 of the final memory image ("" for a trace replay)
	steps  uint64 // cycles the core stepped rather than jumped
	// sha256 of the TextTracer output, the Collector's metrics JSON, its
	// CPI stack JSON and its Chrome trace ("" for a bare run).
	outputs [4]string
}

// runObserved runs c once with a HostProfiler attached and, when observe
// is set, a TextTracer and a Collector keeping stall events, whose stall
// totals it checks against the Result's. The Collector's ring keeps the
// last 2^16 events, which bounds the memory and time of the long MinC
// runs: their Chrome traces compare the tail of the run, while the tracer
// output compares every event. A ring-less Collector rides beside it and
// must export the same aggregates (sameAggregates).
func runObserved(t *testing.T, c goldenCase, cfg MTConfig, observe bool) observedRun {
	t.Helper()
	host := NewHostProfiler(HostProfilerOptions{})
	opt := RunOptions{Host: host}
	var tracer hash.Hash
	var col, ringless *Collector
	if observe {
		tracer = sha256.New()
		col = NewCollector(cfg, CollectorOptions{MetricsInterval: 64, KeepStallEvents: true, RingCapacity: 1 << 16})
		ringless = NewCollector(cfg, CollectorOptions{MetricsInterval: 64, KeepStallEvents: true})
		opt.Observers = []Observer{&TextTracer{W: tracer}, col, ringless}
	}
	var (
		out observedRun
		err error
		m   *Memory
	)
	if c.traces != nil {
		out.res, err = ReplayTraces(cfg, c.traces, opt)
	} else {
		if m, err = c.mkMem(); err != nil {
			t.Fatal(err)
		}
		out.res, err = Run(cfg, c.text, m, opt, c.startPCs...)
	}
	if err != nil {
		out.err = err.Error()
	}
	if m != nil {
		h := sha256.New()
		if err := m.WriteImage(h); err != nil {
			t.Fatal(err)
		}
		out.memory = fmt.Sprintf("%x", h.Sum(nil))
	}
	out.steps = host.Profile().SteppedCycles
	if observe {
		// Every stall the Result counts reached the observers.
		stalls := col.TotalsSnapshot().SlotStalls
		for s, st := range out.res.Slots {
			for r, n := range st.Stalls {
				if stalls[s][r] != n {
					t.Errorf("slot %d: Result counts %d %v stalls, observers saw %d", s, n, core.StallReason(r), stalls[s][r])
				}
			}
		}
		sameAggregates(t, col, ringless)
		out.outputs[0] = fmt.Sprintf("%x", tracer.Sum(nil))
		for i, write := range []func(io.Writer) error{
			col.WriteMetricsJSON,
			col.CPIStack().WriteCPIJSON,
			col.WriteChromeTrace,
		} {
			h := sha256.New()
			if err := write(h); err != nil {
				t.Fatal(err)
			}
			out.outputs[i+1] = fmt.Sprintf("%x", h.Sum(nil))
		}
	}
	return out
}

// sameAggregates requires the ring-less Collector to export exactly what
// the ring Collector does from the same event stream: metrics JSON,
// Prometheus text, CPI stack, profile and interval samples. Only the ring
// drops events, so its drop count is set to the ring-less zero first.
func sameAggregates(t *testing.T, ring, ringless *Collector) {
	t.Helper()
	if ringless.Dropped() != 0 || ringless.Events() != nil {
		t.Errorf("ring-less Collector dropped %d events and kept %d", ringless.Dropped(), len(ringless.Events()))
	}
	dropped := ring.Dropped()
	sansDrops := func(b []byte) []byte {
		for _, f := range []string{`"events_dropped": %d,`, "hirata_events_dropped_total %d\n"} {
			b = bytes.Replace(b, []byte(fmt.Sprintf(f, dropped)), []byte(fmt.Sprintf(f, 0)), 1)
		}
		return b
	}
	cpi := func(c *Collector) func(io.Writer) error {
		st := c.CPIStack()
		st.Dropped = 0
		return st.WriteCPIJSON
	}
	for _, e := range []struct {
		name           string
		ring, ringless func(io.Writer) error
	}{
		{"metrics JSON", ring.WriteMetricsJSON, ringless.WriteMetricsJSON},
		{"Prometheus text", ring.WritePrometheus, ringless.WritePrometheus},
		{"CPI stack JSON", cpi(ring), cpi(ringless)},
	} {
		var want, got bytes.Buffer
		if err := e.ring(&want); err != nil {
			t.Fatal(err)
		}
		if err := e.ringless(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sansDrops(want.Bytes()), got.Bytes()) {
			t.Errorf("ring-less Collector's %s differs from the ring Collector's", e.name)
		}
	}
	want, got := ring.Profile(), ringless.Profile()
	want.Dropped = 0
	if !reflect.DeepEqual(got, want) {
		t.Error("ring-less Collector's profile differs from the ring Collector's")
	}
	if !reflect.DeepEqual(ringless.Samples(), ring.Samples()) {
		t.Error("ring-less Collector's interval samples differ from the ring Collector's")
	}
}

// remoteObservedCases are remote-latency kernels with more context frames
// than thread slots, so quiescent jumps cross implicit-rotation boundaries
// while several slots wait: concurrentMTSrc at 2 and 3 slots with rotation
// intervals 3 and 8, and a kernel that flips SETMODE while remote loads
// are in flight.
func remoteObservedCases(t *testing.T) []goldenCase {
	chase, err := Assemble(concurrentMTSrc)
	if err != nil {
		t.Fatal(err)
	}
	flip, err := Assemble(setmodeRemoteSrc)
	if err != nil {
		t.Fatal(err)
	}
	six := make([]int64, 6)
	var cases []goldenCase
	for _, slots := range []int{2, 3} {
		for _, rot := range []int{3, 8} {
			cases = append(cases, goldenCase{name: fmt.Sprintf("chase/S%d/R%d", slots, rot),
				cfg:  MTConfig{ThreadSlots: slots, ContextFrames: 6, StandbyStations: true, RotationInterval: rot},
				text: chase.Text, mkMem: concurrentMTMem, startPCs: six})
		}
	}
	return append(cases, goldenCase{name: "setmode",
		cfg:  MTConfig{ThreadSlots: 2, ContextFrames: 6, StandbyStations: true, RotationInterval: 5},
		text: flip.Text, mkMem: concurrentMTMem, startPCs: six})
}

// setmodeRemoteSrc is concurrentMTSrc with every thread flipping the
// machine between explicit rotation (remote loads stall through) and
// implicit rotation (they trap and switch contexts) on alternate loads.
const setmodeRemoteSrc = `
	tid  r1
	slli r2, r1, 4
	addi r3, r2, 4096
	li   r6, 8
loop:	andi r7, r6, 1
	beqz r7, implicit
	setmode 1
	j    load
implicit:	setmode 0
load:	lw   r4, 0(r3)
	add  r5, r5, r4
	addi r3, r3, 1
	addi r6, r6, -1
	bnez r6, loop
	sw   r5, 100(r1)
	halt
`

// TestObservedRunIsUnperturbed: attaching observers must not change how a
// run executes. For every golden case and the remote kernels above, a run
// observed by a TextTracer and a Collector must (a) produce the bare run's
// Result and final memory, (b) step exactly as many cycles as the bare run
// (quiescent skipping stays armed), and (c) report, byte for byte, the
// traces, metrics, CPI stack and timeline that the same observed run gives
// when stepped cycle by cycle under DisableCycleSkip.
func TestObservedRunIsUnperturbed(t *testing.T) {
	groups := append(append([]goldenGroup(nil), goldenGroups...), goldenGroup{"Remote", remoteObservedCases})
	for _, g := range groups {
		for _, c := range g.cases(t) {
			t.Run(entryName(g.name, c), func(t *testing.T) {
				t.Parallel()
				bare := runObserved(t, c, c.cfg, false)
				observed := runObserved(t, c, c.cfg, true)
				ref := c.cfg
				ref.DisableCycleSkip = true
				stepped := runObserved(t, c, ref, true)
				if !reflect.DeepEqual(observed.res, bare.res) || observed.err != bare.err {
					t.Errorf("observed Result differs from the bare run:\n  bare:     %+v %s\n  observed: %+v %s",
						bare.res, bare.err, observed.res, observed.err)
				}
				if observed.memory != bare.memory {
					t.Error("observed final memory differs from the bare run")
				}
				if observed.steps != bare.steps {
					t.Errorf("observed run stepped %d cycles, bare run %d: observing changed how the run executed",
						observed.steps, bare.steps)
				}
				for i, name := range []string{"TextTracer output", "metrics JSON", "CPI stack JSON", "Chrome trace"} {
					if observed.outputs[i] != stepped.outputs[i] {
						t.Errorf("%s differs from the DisableCycleSkip run", name)
					}
				}
			})
		}
	}
}

// TestParallelSweepByteIdentical proves the sweep engine is deterministic:
// the full paper-reproduction report serialises byte-identically whether
// the cells run sequentially or concurrently.
func TestParallelSweepByteIdentical(t *testing.T) {
	defer SetParallelism(0)
	w := RayTraceConfig{Rays: 12, Spheres: 4}
	var out [2][]byte
	for i, workers := range []int{1, 8} {
		SetParallelism(workers)
		rep, err := RunFullReport(w, 40, 24)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = js
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Error("report JSON differs between sequential and parallel sweeps")
	}
}

func TestParallelMultiprogramIdentical(t *testing.T) {
	defer SetParallelism(0)
	var out [2][]MultiprogramCell
	for i, workers := range []int{1, 8} {
		SetParallelism(workers)
		cells, err := RunMultiprogram([]int{2, 4})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		out[i] = cells
	}
	if !reflect.DeepEqual(out[0], out[1]) {
		t.Errorf("multiprogram cells differ:\n  seq: %+v\n  par: %+v", out[0], out[1])
	}
}

// mapProfile is the per-PC aggregation the Collector kept before its dense
// table: rows in a map keyed by pc, created by the first event naming the
// pc. It is the reference TestDenseProfileMatchesMapReference holds the
// table to.
type mapProfile map[int64]*obs.PCStat

func (m mapProfile) row(pc int64) *obs.PCStat {
	st := m[pc]
	if st == nil {
		st = &obs.PCStat{PC: pc}
		m[pc] = st
	}
	return st
}

func (m mapProfile) Issue(_ uint64, _ int, pc int64, ins isa.Instruction) {
	st := m.row(pc)
	st.Ins = ins
	st.Issues++
}

func (m mapProfile) Select(cycle uint64, _ int, pc int64, ins isa.Instruction, _ isa.UnitClass, _ int, readyAt uint64) {
	st := m.row(pc)
	st.Ins = ins
	st.Selects++
	st.BusyCycles += uint64(ins.Op.IssueLatency())
	if readyAt > cycle {
		st.LatencyCycles += readyAt - cycle
	}
}

func (m mapProfile) Complete(_ uint64, _ int, pc int64, _ isa.Instruction, _ isa.UnitClass, _ int) {
	m.row(pc).Completes++
}

func (m mapProfile) Stall(_ uint64, _ int, pc int64, _ core.StallReason) {
	if pc >= 0 {
		m.row(pc).StallCycles++
	}
}

func (mapProfile) Redirect(uint64, int, int64)      {}
func (mapProfile) Bind(uint64, int, int, int64)     {}
func (mapProfile) Trap(uint64, int, int, int64)     {}
func (mapProfile) Rotate(uint64, []int)             {}
func (mapProfile) ThreadEnd(uint64, int, int, bool) {}

// rows lists the reference rows in pc order.
func (m mapProfile) rows() []obs.PCStat {
	out := make([]obs.PCStat, 0, len(m))
	for _, st := range m {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// killedWaiterSrc forks a thread that stalls on a queue pop no thread ever
// pushes, until its parent kills it: the pop's pc is charged stall cycles
// and never issues.
const killedWaiterSrc = `
	ffork
	qen  r20, r21
	tid  r1
	beqz r1, boss
	mov  r5, r20
	halt
boss:	li   r3, 40
wait:	addi r3, r3, -1
	bnez r3, wait
	kill
	halt
`

// TestDenseProfileMatchesMapReference runs a 4-slot MinC program, a 4-copy
// trace replay, whose pcs are stream positions, and a killed waiter with
// the map-keyed reference beside a ring-less Collector: the Collector's
// dense profile must list exactly the reference rows, in pc order, rows
// that issued nothing (only stalls charged) included.
func TestDenseProfileMatchesMapReference(t *testing.T) {
	cfg := MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}
	src, err := os.ReadFile(filepath.Join("examples", "programs", "mandel.mc"))
	if err != nil {
		t.Fatal(err)
	}
	mandel, err := CompileMinC(string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := mandel.NewMemory(1024)
	if err != nil {
		t.Fatal(err)
	}
	SetMinCThreads(mandel, m, cfg.ThreadSlots)
	fib := loadProgram(t, "fib.s")
	fm, err := fib.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordTrace(fib.Text, fm)
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := Assemble(killedWaiterSrc)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := waiter.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		run       func(RunOptions) (MTResult, error)
		issueless bool // must have a row that never issued
	}{
		{"mandel.mc", func(opt RunOptions) (MTResult, error) { return Run(cfg, mandel.Text, m, opt) }, false},
		{"fib.trace", func(opt RunOptions) (MTResult, error) {
			return ReplayTraces(cfg, [][]TraceRecord{recs, recs, recs, recs}, opt)
		}, false},
		{"killed-waiter", func(opt RunOptions) (MTResult, error) {
			return Run(MTConfig{ThreadSlots: 2, StandbyStations: true}, waiter.Text, wm, opt)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col, ref := NewCollector(cfg, CollectorOptions{}), mapProfile{}
			res, err := tc.run(RunOptions{Observers: []Observer{MultiObserver{col, ref}}})
			if err != nil {
				t.Fatal(err)
			}
			got, want := col.Profile(), ref.rows()
			if !reflect.DeepEqual(got.PCs, want) {
				t.Fatalf("dense profile has %d rows, the map reference %d; first difference at %d",
					len(got.PCs), len(want), firstDiff(got.PCs, want))
			}
			if got.TotalIssues != res.Instructions {
				t.Errorf("profile counts %d issues, run issued %d", got.TotalIssues, res.Instructions)
			}
			issueless := 0
			for _, st := range want {
				if st.Issues == 0 {
					issueless++
				}
			}
			if tc.issueless && issueless == 0 {
				t.Error("no profile row without issues: the case no longer covers stall-only rows")
			}
		})
	}
}

func firstDiff(a, b []obs.PCStat) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestRISCTimingIdentity checks the one-slot timing identity
// (docs/ARCHITECTURE.md, "Timing contracts"). On one slot with issue width
// 1 and no standby stations, a single-thread program obeys
//
//	cycles(MT) = cycles(RISC) + branches + 4 + 2·[a store precedes the final halt]
//
// where branches is the slot's branch count (the paper's 5- against
// 4-cycle branch delay), 4 is the start-up offset (a lone halt takes 1
// cycle on the RISC machine and 5 on the MT core), and the last term is
// the MT core waiting for a store still in flight at halt, which the RISC
// machine does not. The two machines share only exec.Execute and the
// latency tables. Standby stations must never make the run slower.
func TestRISCTimingIdentity(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "programs", "fib.s"))
	if err != nil {
		t.Fatal(err)
	}
	fib, err := Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 48, Spheres: 6})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := BuildLivermore(LivermoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := BuildRecurrence(RecurrenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := BuildLinkedList(LinkedListConfig{BreakAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *Program
		mem  func() (*Memory, error)
	}{
		{"fib.s", fib, func() (*Memory, error) { return fib.NewMemory(64) }},
		{"raytrace", rt.Seq, func() (*Memory, error) { return rt.NewMemory(rt.Seq, 1) }},
		{"lk1", lk.Seq, func() (*Memory, error) { return lk.Seq.NewMemory(64) }},
		{"recurrence", rc.Seq, func() (*Memory, error) { return rc.NewMemory(rc.Seq, 1) }},
		{"linkedlist", ll.Seq, func() (*Memory, error) { return ll.NewMemory(ll.Seq, 1) }},
	} {
		m, err := c.mem()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := RecordTrace(c.prog.Text, m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var storeAtHalt uint64
		if n := len(recs); n >= 2 && recs[n-1].Ins.Op == isa.HALT && recs[n-2].Ins.Op.IsStore() {
			storeAtHalt = 2
		}
		for _, ls := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/ls=%d", c.name, ls), func(t *testing.T) {
				m, err := c.mem()
				if err != nil {
					t.Fatal(err)
				}
				rres, err := RunRISC(RISCConfig{LoadStoreUnits: ls}, c.prog.Text, m)
				if err != nil {
					t.Fatal(err)
				}
				mt := func(standby bool) MTResult {
					m, err := c.mem()
					if err != nil {
						t.Fatal(err)
					}
					res, err := RunMT(MTConfig{ThreadSlots: 1, IssueWidth: 1, LoadStoreUnits: ls, StandbyStations: standby}, c.prog.Text, m)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				bare, standby := mt(false), mt(true)
				branches := bare.Slots[0].Branches
				if want := rres.Cycles + branches + 4 + storeAtHalt; bare.Cycles != want {
					t.Errorf("MT %d cycles, want RISC %d + %d branches + 4 + %d = %d", bare.Cycles, rres.Cycles, branches, storeAtHalt, want)
				}
				if standby.Cycles > bare.Cycles {
					t.Errorf("standby stations slowed the run: %d cycles against %d", standby.Cycles, bare.Cycles)
				}
			})
		}
	}
}
