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
//     produce byte-identical output at any parallelism.

import (
	"bytes"
	"reflect"
	"testing"
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

// TestCycleSkipDifferentialConcurrentMT is the case the skip is built for:
// high remote latency with more context frames than thread slots, so long
// quiescent stretches alternate with data-absence context switches.
func TestCycleSkipDifferentialConcurrentMT(t *testing.T) {
	prog, err := Assemble(concurrentMTSrc)
	if err != nil {
		t.Fatal(err)
	}
	mkMem := func() (*Memory, error) {
		m := NewMemoryWithRemote(8192, 4096, 300)
		for i := int64(4096); i < 8192; i++ {
			m.SetInt(i, i%97)
		}
		return m, nil
	}
	// Four threads on one slot with four frames (switching on), and the
	// stall-through variant with switching suppressed.
	for _, suppress := range []bool{false, true} {
		runSkipDifferential(t, MTConfig{
			ThreadSlots:      1,
			ContextFrames:    4,
			StandbyStations:  true,
			ExplicitRotation: suppress,
		}, prog.Text, mkMem, 0, 0, 0, 0)
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
