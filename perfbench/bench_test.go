package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"hirata/internal/asm"
	"hirata/internal/core"
	"hirata/internal/mem"
	"hirata/internal/obs"
	"hirata/internal/runledger"
)

const testRoot = ".."

var workloadNames = []string{"table2", "remote-mt", "examples"}

func setupFor(t *testing.T, name string, seed int64, tr *tracer) (bench, *env) {
	t.Helper()
	r := &runner{root: testRoot, name: name, seed: seed}
	w, e, _, err := r.setup(tr)
	if err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	return w, e
}

// TestProbeAndWrapperLeaveResultsIdentical runs the same jobs bare and
// with the traced run's step-counting probe and counting observer
// wrapper attached, and requires byte-identical Results and memories.
func TestProbeAndWrapperLeaveResultsIdentical(t *testing.T) {
	rem := remoteVariant(3, 7)
	remProg := asm.MustAssemble(remoteKernel)
	w, e := setupFor(t, "table2", 1, newTracer(false))
	rt := w.(*table2).rt
	type job struct {
		name     string
		cfg      core.Config
		prog     *asm.Program
		image    func() *mem.Memory
		pcs      []int64
		observed bool
	}
	rtImage := func(p *asm.Program, threads int) func() *mem.Memory {
		return func() *mem.Memory {
			m, err := rt.NewMemory(p, threads)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	remImage := func() *mem.Memory {
		m, err := rem.image(e, remProg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	jobs := []job{
		{name: "raytrace", cfg: core.Config{ThreadSlots: 4, LoadStoreUnits: 1, StandbyStations: true}, prog: rt.Par, image: rtImage(rt.Par, 4)},
		{name: "raytrace-observed", cfg: core.Config{ThreadSlots: 2, LoadStoreUnits: 2}, prog: rt.Par, image: rtImage(rt.Par, 2), observed: true},
		{name: "remote", cfg: rem.config(), prog: remProg, image: remImage, pcs: rem.pcs()},
		{name: "remote-observed", cfg: rem.config(), prog: remProg, image: remImage, pcs: rem.pcs(), observed: true},
	}
	for _, j := range jobs {
		var results [2][]byte
		var digests [2]string
		var stacks [2]obs.CPIStack
		for i, traced := range []bool{false, true} {
			run := &env{tr: newTracer(traced)}
			var col *obs.Collector
			if j.observed {
				col = obs.NewCollector(j.cfg, obs.Options{})
			}
			m := j.image()
			res, err := run.runCore(j.cfg, j.prog.Text, m, j.pcs, col)
			if err != nil {
				t.Fatalf("%s: %v", j.name, err)
			}
			if results[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
			digests[i] = memDigest(m)
			if col != nil {
				col.Finalize(res)
				stacks[i] = col.CPIStack()
			}
			if traced && (run.c.coreSteps == 0 || (j.observed && run.c.obsEvents == 0)) {
				t.Errorf("%s: traced run counted %d steps, %d events", j.name, run.c.coreSteps, run.c.obsEvents)
			}
		}
		if !bytes.Equal(results[0], results[1]) {
			t.Errorf("%s: traced Result differs:\n%s\n%s", j.name, results[0], results[1])
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: traced final memory differs", j.name)
		}
		if !reflect.DeepEqual(stacks[0], stacks[1]) {
			t.Errorf("%s: CPI stack differs behind the counting wrapper", j.name)
		}
	}

	traces := [][]core.TraceInput{w.(*table2).seqTrace, w.(*table2).seqTrace}
	var replays [2][]byte
	for i, traced := range []bool{false, true} {
		run := &env{tr: newTracer(traced)}
		res, err := run.replay(core.Config{ThreadSlots: 2, StandbyStations: true}, traces)
		if err != nil {
			t.Fatal(err)
		}
		replays[i], _ = json.Marshal(res)
	}
	if !bytes.Equal(replays[0], replays[1]) {
		t.Errorf("replay: traced Result differs:\n%s\n%s", replays[0], replays[1])
	}
}

// TestTracedAndUntracedPassesAgree runs one untraced and one traced pass
// of every workload: every job must match its recorded outcome, and both
// passes must simulate identical counts.
func TestTracedAndUntracedPassesAgree(t *testing.T) {
	for _, name := range workloadNames {
		tr := newTracer(false)
		w, e := setupFor(t, name, 1, tr)
		r := &runner{}
		plain := r.pass(w, e)
		tr.on = true
		traced := r.pass(w, e)
		if r.failed > 0 {
			t.Errorf("%s: %d jobs failed: %v", name, r.failed, r.errs)
		}
		if plain.c.jobs == 0 || !sameSimulation(plain.c, traced.c) {
			t.Errorf("%s: untraced pass %+v, traced pass %+v", name, plain.c, traced.c)
		}
		if traced.c.coreSteps == 0 || traced.c.coreSteps > traced.c.coreCycles {
			t.Errorf("%s: traced pass counted %d steps over %d cycles", name, traced.c.coreSteps, traced.c.coreCycles)
		}
	}
}

// inputKeys returns the run key (a content hash of program, initial
// memory, machine configuration and start PCs) of every job a workload
// generated.
func inputKeys(t *testing.T, w bench, e *env) []string {
	t.Helper()
	var keys []string
	add := func(cfg core.Config, p *asm.Program, m *mem.Memory, err error, pcs []int64) {
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, runledger.Begin(cfg, p.Text, m, pcs).Key())
	}
	switch w := w.(type) {
	case *table2:
		for _, slots := range []int{1, 8} {
			p := w.rt.Par
			if slots == 1 {
				p = w.rt.Seq
			}
			m, err := w.rt.NewMemory(p, slots)
			add(core.Config{ThreadSlots: slots}, p, m, err, nil)
		}
		keys = append(keys, runledger.DigestBytes([]byte(fmtTrace(w.seqTrace))))
	case *remoteMT:
		for i := range w.jobs {
			m, err := w.jobs[i].image(e, w.prog)
			add(w.jobs[i].config(), w.prog, m, err, w.jobs[i].pcs())
		}
	case *examples:
		for _, j := range w.jobs {
			p, err := j.build(e)
			if err != nil {
				t.Fatal(err)
			}
			m, err := j.image(e, p)
			add(j.cfg, p, m, err, make([]int64, max(j.threads, 1)))
		}
	default:
		t.Fatalf("no input keys for %T", w)
	}
	return keys
}

func fmtTrace(tr []core.TraceInput) string {
	b, _ := json.Marshal(tr)
	return string(b)
}

// TestSeedDeterminesInputs: the same seed gives byte-identical inputs and
// counts; a different seed changes both.
func TestSeedDeterminesInputs(t *testing.T) {
	type snapshot struct {
		keys []string
		c    counts
	}
	take := func(name string, seed int64) snapshot {
		w, e := setupFor(t, name, seed, newTracer(false))
		keys := inputKeys(t, w, e)
		r := &runner{}
		ps := r.pass(w, e)
		if r.failed > 0 {
			t.Fatalf("%s seed %d: %v", name, seed, r.errs)
		}
		return snapshot{keys, ps.c}
	}
	for _, name := range workloadNames {
		a, b, c := take(name, 1), take(name, 1), take(name, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave different inputs or counts on a second setup", name)
		}
		if reflect.DeepEqual(a.keys, c.keys) || a.c.simCycles == c.c.simCycles {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs or cycle count (%d)", name, a.c.simCycles)
		}
	}
}

// TestPerLayerSumMatchesWall: the layer self times of a traced setup and
// pass, plus the unattributed remainder, add up to their measured wall
// time within sumTolerance, and every span is a reported layer.
func TestPerLayerSumMatchesWall(t *testing.T) {
	known := map[string]bool{"setup": true, "pass": true}
	for _, l := range layerNames {
		known[l] = true
	}
	for _, name := range workloadNames {
		tr := newTracer(true)
		r := &runner{root: testRoot, name: name, seed: 3}
		w, e, setupWall, err := r.setup(tr)
		if err != nil {
			t.Fatal(err)
		}
		ps := r.pass(w, e)
		var sum time.Duration
		for k, v := range tr.selfTimes(0) {
			if !known[k] {
				t.Errorf("%s: span %q is not a reported layer", name, k)
			}
			if v < 0 {
				t.Errorf("%s: %s has negative self time %v", name, k, v)
			}
			sum += v
		}
		if sum != tr.rootTime(0) {
			t.Errorf("%s: self times sum to %v, region roots span %v", name, sum, tr.rootTime(0))
		}
		wall := setupWall + ps.wall
		if gap := ratio(float64(sum-wall), float64(wall)); gap > sumTolerance || gap < -sumTolerance {
			t.Errorf("%s: layers sum to %v, traced wall %v (gap %.3f%%)", name, sum, wall, 100*gap)
		}
	}
}

// rootTime sums the durations of the region roots recorded since mark.
func (t *tracer) rootTime(mark int) time.Duration {
	var d time.Duration
	for _, s := range t.spans[mark:] {
		if s.parent < mark {
			d += s.end - s.start
		}
	}
	return d
}
