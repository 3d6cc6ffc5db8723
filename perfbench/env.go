package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"time"

	"hirata/internal/asm"
	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/lint"
	"hirata/internal/mem"
	"hirata/internal/obs"
	"hirata/internal/risc"
)

// outcome is the simulated result of one job that the benchmark checks:
// exact counts plus a digest of the final data memory.
type outcome struct {
	Cycles uint64 `json:"cycles"`
	Instr  uint64 `json:"instr"`
	Mem    string `json:"mem"`
}

// expectations maps a job key to the outcome recorded for it.
type expectations map[string]outcome

// expectedFile holds every job outcome of the workload pools, recorded
// from the simulator with `perfbench -record`.
const expectedFile = "perfbench/testdata/expected.json"

func loadExpectations(path string) (expectations, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Jobs expectations `json:"jobs"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Jobs, nil
}

// counts tallies one pass's work; every field is exact and repeats
// from pass to pass.
type counts struct {
	jobs, failed int

	simCycles, simInstr uint64 // every machine: core, trace replay and RISC

	coreCycles, coreInstr uint64
	coreSteps, skipJumps  uint64 // traced passes only (stepProbe)
	riscCycles            uint64

	obsEvents, obsDropped uint64 // obsEvents: traced passes only
	lintFindings          uint64
	boundSum, boundCycles uint64 // static bounds and the cycles they bound
	ledgerBytes           int64

	paperErrPct float64 // table2 only
}

// env carries one measured process's state through the workload code:
// the tracer, the expectations to check against and the running counts.
type env struct {
	root   string // checkout root
	tr     *tracer
	exp    expectations
	record expectations // non-nil: store outcomes instead of checking
	c      counts
	jobNs  []time.Duration
	errs   []string

	collectPerJob bool // collect the heap before each job (warm-up pass)
}

// span helpers: each wraps exactly one call into a layer.

func (e *env) assemble(src string) (*asm.Program, error) {
	s := e.tr.begin("asm.assemble")
	p, err := asm.Assemble(src)
	e.tr.end(s)
	return p, err
}

func (e *env) image(p *asm.Program, headroom int64) (*mem.Memory, error) {
	s := e.tr.begin("mem.image")
	m, err := p.NewMemory(headroom)
	e.tr.end(s)
	return m, err
}

// runCore builds a processor, starts one thread per pc and runs it,
// with the counting probe and observer wrapper attached when traced.
func (e *env) runCore(cfg core.Config, text []isa.Instruction, m *mem.Memory, pcs []int64, col *obs.Collector) (core.Result, error) {
	s := e.tr.begin("core.new")
	p, err := core.New(cfg, text, m)
	if err != nil {
		e.tr.end(s)
		return core.Result{}, err
	}
	var probe *stepProbe
	var counter *countingObserver
	if e.tr.on {
		probe = &stepProbe{}
		p.SetHostProbe(probe)
	}
	if col != nil {
		if e.tr.on {
			counter = &countingObserver{inner: col}
			p.Observe(counter)
		} else {
			p.Observe(col)
		}
	}
	for _, pc := range pcs {
		if err := p.StartThread(pc); err != nil {
			e.tr.end(s)
			return core.Result{}, err
		}
	}
	e.tr.end(s)

	s = e.tr.begin("core.run")
	res, err := p.Run()
	e.tr.end(s)
	e.countCore(res, probe)
	if counter != nil {
		e.c.obsEvents += counter.n
	}
	return res, err
}

// replay runs trace-driven simulation of the given per-thread traces.
func (e *env) replay(cfg core.Config, traces [][]core.TraceInput) (core.Result, error) {
	s := e.tr.begin("core.new")
	p, err := core.NewTraceDriven(cfg, traces)
	e.tr.end(s)
	if err != nil {
		return core.Result{}, err
	}
	var probe *stepProbe
	if e.tr.on {
		probe = &stepProbe{}
		p.SetHostProbe(probe)
	}
	s = e.tr.begin("core.replay")
	res, err := p.Run()
	e.tr.end(s)
	e.countCore(res, probe)
	return res, err
}

func (e *env) countCore(res core.Result, probe *stepProbe) {
	e.c.coreCycles += res.Cycles
	e.c.coreInstr += res.Instructions
	e.c.simCycles += res.Cycles
	e.c.simInstr += res.Instructions
	if probe != nil {
		e.c.coreSteps += probe.steps
		e.c.skipJumps += probe.jumps
	}
}

func (e *env) runRISC(cfg risc.Config, text []isa.Instruction, m *mem.Memory) (risc.Result, error) {
	s := e.tr.begin("risc.run")
	defer e.tr.end(s)
	mc, err := risc.New(cfg, text, m)
	if err != nil {
		return risc.Result{}, err
	}
	res, err := mc.Run()
	e.c.riscCycles += res.Cycles
	e.c.simCycles += res.Cycles
	e.c.simInstr += res.Instructions
	return res, err
}

// checkBound requires a static lower bound not to exceed the measured
// cycles, and adds both to lint.bound_ratio's terms.
func (e *env) checkBound(b lint.Bounds, cycles uint64) error {
	if b.Unbounded {
		return nil
	}
	if uint64(b.Bound) > cycles {
		return fmt.Errorf("static bound %d exceeds measured %d cycles", b.Bound, cycles)
	}
	e.c.boundSum += uint64(b.Bound)
	e.c.boundCycles += cycles
	return nil
}

// lintClean fails set-up on any finding: the generated workloads are
// lint-clean by construction.
func lintClean(ds []lint.Diagnostic) error {
	if len(ds) > 0 {
		return fmt.Errorf("lint: %d finding(s), first: %s", len(ds), ds[0])
	}
	return nil
}

// job times one job and records its failure, if any. Untraced passes
// keep the per-job times for the job_ms percentiles.
func (e *env) job(key string, run func() error) {
	if e.collectPerJob {
		runtime.GC()
	}
	t0 := time.Now()
	err := run()
	e.jobNs = append(e.jobNs, time.Since(t0))
	e.c.jobs++
	if err != nil {
		e.fail(key, err)
	}
}

func (e *env) fail(key string, err error) {
	e.c.failed++
	if len(e.errs) < 20 {
		e.errs = append(e.errs, key+": "+err.Error())
	}
}

// maxCycles caps a job at a small multiple of its recorded cycle count,
// so a runaway job fails fast instead of spinning to the core's default.
func (e *env) maxCycles(key string) uint64 {
	if want, ok := e.exp[key]; ok {
		return 4*want.Cycles + 10_000
	}
	return 20_000_000
}

// check compares a job's outcome with the recorded one (or records it).
func (e *env) check(key string, got outcome) error {
	if e.record != nil {
		if prev, ok := e.record[key]; ok && prev != got {
			return fmt.Errorf("outcome changed between recordings: %+v then %+v", prev, got)
		}
		e.record[key] = got
		return nil
	}
	want, ok := e.exp[key]
	if !ok {
		return fmt.Errorf("no recorded outcome in %s", expectedFile)
	}
	if got != want {
		return fmt.Errorf("outcome %+v, recorded %+v", got, want)
	}
	return nil
}

// memDigest is the FNV-1a hash of a memory's full image.
func memDigest(m *mem.Memory) string {
	h := fnv.New64a()
	_ = m.WriteImage(h) // hash.Hash writes never fail
	return strconv.FormatUint(h.Sum64(), 16)
}
