package hirata_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hirata"
)

// This file is the differential half of the static bound analysis
// (internal/lint/bound.go): for every program we can run — shipped
// examples, paper workloads, and the MinC fuzz corpus — the static lower
// bound must not exceed the measured cycle count. A violation means the
// "certificate" certifies something false, which is a bug in the
// analysis, never in the program.

// boundConfigs are the machine shapes each program is checked under.
var boundConfigs = []hirata.MTConfig{
	{ThreadSlots: 1},
	{ThreadSlots: 4, StandbyStations: true},
	{ThreadSlots: 4, IssueWidth: 2, LoadStoreUnits: 2, StandbyStations: true},
}

// assertBound runs the program and checks the certificate. Programs that
// fail to run under a shape (wrong slot count for a compiled-in ring,
// MaxCycles on a mismatched configuration) are skipped: the bound only
// speaks about executions that exist.
func assertBound(t *testing.T, cfg hirata.MTConfig, text []hirata.Instruction, m *hirata.Memory, pcs ...int64) {
	t.Helper()
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 20_000_000
	}
	res, err := hirata.RunMT(cfg, text, m, pcs...)
	if err != nil {
		t.Skipf("run failed (%v); nothing to certify", err)
	}
	b := hirata.StaticBounds(cfg, text, pcs...)
	if b.Unbounded {
		t.Fatalf("bound analysis says unbounded, but the run finished in %d cycles", res.Cycles)
	}
	if b.Bound < 0 || uint64(b.Bound) > res.Cycles {
		t.Fatalf("static lower bound %d exceeds measured %d cycles\n%s", b.Bound, res.Cycles, b.Format())
	}
	if b.Bound <= 0 {
		t.Fatalf("degenerate bound %d for a %d-cycle run", b.Bound, res.Cycles)
	}
}

// TestBoundExamples covers every shipped example program, assembly and
// MinC alike, under each machine shape.
func TestBoundExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "programs", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		ext := filepath.Ext(file)
		if ext != ".s" && ext != ".mc" {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var prog *hirata.Program
		if ext == ".mc" {
			prog, err = hirata.CompileMinC(string(src))
		} else {
			prog, err = hirata.Assemble(string(src))
		}
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, cfg := range boundConfigs {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/S%dxD%d", filepath.Base(file), cfg.ThreadSlots, max(cfg.IssueWidth, 1)), func(t *testing.T) {
				m, err := prog.NewMemory(4096)
				if err != nil {
					t.Fatal(err)
				}
				hirata.SetMinCThreads(prog, m, cfg.ThreadSlots)
				assertBound(t, cfg, prog.Text, m)
			})
		}
	}
}

// TestBoundWorkloads covers the paper workload generators, sequential and
// parallel variants, on the machine shapes their experiments use.
func TestBoundWorkloads(t *testing.T) {
	type run struct {
		name string
		cfg  hirata.MTConfig
		prog *hirata.Program
		mem  func(threads int) (*hirata.Memory, error)
	}
	var runs []run

	rc, err := hirata.BuildRecurrence(hirata.RecurrenceConfig{N: 64})
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{"recurrence-seq", hirata.MTConfig{ThreadSlots: 1, StandbyStations: true}, rc.Seq,
			func(n int) (*hirata.Memory, error) { return rc.NewMemory(rc.Seq, n) }},
		run{"recurrence-par", hirata.MTConfig{ThreadSlots: 4, StandbyStations: true}, rc.Par,
			func(n int) (*hirata.Memory, error) { return rc.NewMemory(rc.Par, n) }},
	)

	lv, err := hirata.BuildLivermore(hirata.LivermoreConfig{N: 32, Threads: 4, LoadStoreUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{"livermore-seq", hirata.MTConfig{ThreadSlots: 1, LoadStoreUnits: 1, StandbyStations: true}, lv.Seq,
			func(int) (*hirata.Memory, error) { return lv.Seq.NewMemory(64) }},
		run{"livermore-par", hirata.MTConfig{ThreadSlots: 4, LoadStoreUnits: 1, StandbyStations: true}, lv.Par,
			func(int) (*hirata.Memory, error) { return lv.Par.NewMemory(64) }},
	)

	rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{Spheres: 4, Rays: 16})
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{"raytrace-seq", hirata.MTConfig{ThreadSlots: 1, LoadStoreUnits: 2, StandbyStations: true}, rt.Seq,
			func(n int) (*hirata.Memory, error) { return rt.NewMemory(rt.Seq, n) }},
		run{"raytrace-par", hirata.MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}, rt.Par,
			func(n int) (*hirata.Memory, error) { return rt.NewMemory(rt.Par, n) }},
	)

	ll, err := hirata.BuildLinkedList(hirata.LinkedListConfig{Nodes: 32, BreakAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{"linkedlist-seq", hirata.MTConfig{ThreadSlots: 1, StandbyStations: true}, ll.Seq,
			func(n int) (*hirata.Memory, error) { return ll.NewMemory(ll.Seq, n) }},
		run{"linkedlist-par", hirata.MTConfig{ThreadSlots: 4, StandbyStations: true}, ll.Par,
			func(n int) (*hirata.Memory, error) { return ll.NewMemory(ll.Par, n) }},
	)

	rd, err := hirata.BuildRadiosity(hirata.RadiosityConfig{Patches: 8, Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{"radiosity", hirata.MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}, rd.Prog,
			func(n int) (*hirata.Memory, error) { return rd.NewMemory(n) }},
	)

	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			m, err := r.mem(r.cfg.ThreadSlots)
			if err != nil {
				t.Fatal(err)
			}
			assertBound(t, r.cfg, r.prog.Text, m)
		})
	}
}

// TestBoundFuzzCorpus replays the MinC fuzz corpus: whatever the fuzzer
// found that compiles and runs must also satisfy the certificate.
func TestBoundFuzzCorpus(t *testing.T) {
	dir := filepath.Join("internal", "minc", "testdata", "fuzz", "FuzzCompile")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no fuzz corpus: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		src, ok := hirata.CorpusString(string(data))
		if !ok {
			continue
		}
		prog, err := hirata.CompileMinC(src)
		if err != nil {
			continue // the fuzzer keeps crashers and rejects alike
		}
		for _, cfg := range boundConfigs {
			cfg := cfg
			cfg.MaxCycles = 2_000_000
			t.Run(fmt.Sprintf("%s/S%d", e.Name(), cfg.ThreadSlots), func(t *testing.T) {
				m, err := prog.NewMemory(4096)
				if err != nil {
					t.Skipf("memory: %v", err)
				}
				hirata.SetMinCThreads(prog, m, cfg.ThreadSlots)
				assertBound(t, cfg, prog.Text, m)
			})
		}
	}
}
