package hostobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"hirata/internal/asm"
	"hirata/internal/buildinfo"
	"hirata/internal/core"
	"hirata/internal/obs"
	"hirata/internal/sweep"
)

func TestMain(m *testing.M) {
	// Pin the build identity: the /hostmetrics golden embeds
	// hirata_build_info (see internal/obs/testmain_test.go).
	buildinfo.SetForTest(&buildinfo.Info{
		Revision:  "0000000000000000",
		Dirty:     false,
		GoVersion: "go0.0-test",
	})
	os.Exit(m.Run())
}

// loopSrc keeps the pipeline busy for a few thousand cycles (same shape as
// internal/core's alloc test workload).
const loopSrc = `
	li   r1, 800
	li   r2, 1
loop:	mul  r2, r2, r1
	addi r1, r1, -1
	bnez r1, loop
	halt
`

func runProfiled(t *testing.T, opt Options) (*Profiler, core.Result) {
	t.Helper()
	prog := asm.MustAssemble(loopSrc)
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	prof := New(opt)
	p.SetHostProbe(prof)
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return prof, res
}

func TestProfilerObservesRun(t *testing.T) {
	prof, res := runProfiled(t, Options{SampleEvery: 1})
	pp := prof.Profile()
	if pp.Steps == 0 || pp.SampledSteps != pp.Steps {
		t.Fatalf("SampleEvery=1 must sample every step: sampled %d of %d", pp.SampledSteps, pp.Steps)
	}
	if pp.RunCycles != res.Cycles {
		t.Errorf("RunEnd cycles %d != Result.Cycles %d", pp.RunCycles, res.Cycles)
	}
	if pp.SampledNanos == 0 {
		t.Error("no phase time recorded")
	}
	// Every stepCycle runs all seven in-step phases; their ns must sum to
	// the total minus the skip machinery.
	var inStep uint64
	for ph := core.HostPhase(0); ph < core.HostPhaseSkip; ph++ {
		inStep += pp.Phases[ph].Nanos
	}
	if inStep == 0 {
		t.Error("in-step phases recorded no time")
	}
	if s := pp.Format(); len(s) == 0 || !bytes.Contains([]byte(s), []byte("issue-select")) {
		t.Errorf("Format missing phase rows:\n%s", s)
	}
}

func TestProfiledRunIsResultIdentical(t *testing.T) {
	prog := asm.MustAssemble(loopSrc)
	run := func(attach bool) core.Result {
		m, err := prog.NewMemory(64)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.New(core.Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			p.SetHostProbe(New(Options{SampleEvery: 3}))
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, profiled := run(false), run(true)
	pj, _ := json.Marshal(plain)
	qj, _ := json.Marshal(profiled)
	if !bytes.Equal(pj, qj) {
		t.Errorf("profiled run diverged:\nplain:    %s\nprofiled: %s", pj, qj)
	}
}

func TestSamplingInterval(t *testing.T) {
	prof, _ := runProfiled(t, Options{SampleEvery: 8})
	pp := prof.Profile()
	want := (pp.Steps + 7) / 8
	if pp.SampledSteps != want {
		t.Errorf("sampled %d of %d steps at 1/8; want %d", pp.SampledSteps, pp.Steps, want)
	}
}

func TestRingBounded(t *testing.T) {
	prof, _ := runProfiled(t, Options{SampleEvery: 1, TraceCap: 16})
	samples, _ := prof.Samples()
	if len(samples) != 16 {
		t.Fatalf("ring retained %d samples, cap 16", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle <= samples[i-1].Cycle {
			t.Fatalf("ring out of order at %d: %d after %d", i, samples[i].Cycle, samples[i-1].Cycle)
		}
	}
}

func TestSkipJumpAccounting(t *testing.T) {
	p := New(Options{})
	p.SkipJump(10, 50)
	p.SkipJump(60, 62)
	pp := p.Profile()
	if pp.SkipJumps != 2 || pp.SkippedCycles != 39+1 {
		t.Errorf("skip totals = %d jumps / %d cycles; want 2 / 40", pp.SkipJumps, pp.SkippedCycles)
	}
}

func TestSweepRecorder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := NewSweepRecorder()
		res, err := sweep.MapObserved(10, workers, func(i int) (int, error) {
			time.Sleep(time.Microsecond)
			return i * i, nil
		}, rec)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d]=%d", workers, i, r)
			}
		}
		spans, total, w, busy := rec.Cells()
		if total != 10 || len(spans) != 10 {
			t.Fatalf("workers=%d: recorded %d/%d cells", workers, len(spans), total)
		}
		if w < 1 || w > workers {
			t.Fatalf("workers=%d: recorder saw %d workers", workers, w)
		}
		if busy == 0 {
			t.Errorf("workers=%d: zero busy time", workers)
		}
		seen := map[int]bool{}
		for _, c := range spans {
			if c.Pending < 0 || c.Pending > 9 || c.Failed {
				t.Fatalf("bad span %+v", c)
			}
			seen[c.Cell] = true
		}
		if len(seen) != 10 {
			t.Fatalf("workers=%d: spans cover %d distinct cells", workers, len(seen))
		}
	}
	// Telemetry must still see cells on the error path.
	rec := NewSweepRecorder()
	boom := errors.New("boom")
	_, err := sweep.MapObserved(3, 1, func(i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return i, nil
	}, rec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	spans, _, _, _ := rec.Cells()
	if len(spans) != 2 || !spans[1].Failed {
		t.Fatalf("error-path spans: %+v", spans)
	}
}

func TestWriteHostTraceValidJSON(t *testing.T) {
	prof, _ := runProfiled(t, Options{SampleEvery: 4, TraceCap: 64})
	rec := NewSweepRecorder()
	if _, err := sweep.MapObserved(6, 2, func(i int) (int, error) { return i, nil }, rec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHostTrace(&buf, prof, rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("host trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		pids[e["pid"].(float64)] = true
		if e["ph"] == "X" && e["pid"].(float64) == hostLoopPID {
			phases[e["name"].(string)] = true
		}
	}
	if !pids[hostLoopPID] || !pids[sweepPID] {
		t.Errorf("trace lacks expected tracks: pids %v", pids)
	}
	if !phases["issue-select"] {
		t.Errorf("no issue-select phase slices in trace: %v", phases)
	}

	// An event whose args map is nil or empty omits "args" altogether.
	var bare bytes.Buffer
	tw := obs.NewTraceWriter(&bare)
	tw.Slice(hostLoopPID, 0, "nil", hostLoopCat, 0, 0, nil)
	tw.Instant(hostLoopPID, 0, "empty", 1, "t", map[string]any{})
	tw.Counter(hostLoopPID, 0, "nil", 2, nil)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[{"name":"nil","cat":"hostloop","ph":"X","ts":0,"dur":1,"pid":1,"tid":0},` +
		`{"name":"empty","ph":"i","ts":1,"pid":1,"tid":0,"s":"t"},{"name":"nil","ph":"C","ts":2,"pid":1,"tid":0}]}`
	if bare.String() != want {
		t.Errorf("args-free events:\n got %s\nwant %s", bare.String(), want)
	}
}
