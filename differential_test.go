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
//     stream of the cycle-by-cycle reference.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"reflect"
	"testing"

	"hirata/internal/core"
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
// output compares every event.
func runObserved(t *testing.T, c goldenCase, cfg MTConfig, observe bool) observedRun {
	t.Helper()
	host := NewHostProfiler(HostProfilerOptions{})
	opt := RunOptions{Host: host}
	var tracer hash.Hash
	var col *Collector
	if observe {
		tracer = sha256.New()
		col = NewCollector(cfg, CollectorOptions{MetricsInterval: 64, KeepStallEvents: true, RingCapacity: 1 << 16})
		opt.Observers = []Observer{&TextTracer{W: tracer}, col}
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
