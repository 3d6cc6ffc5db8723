// Package hirata is a library-level reproduction of Hirata et al., "An
// Elementary Processor Architecture with Simultaneous Instruction Issuing
// from Multiple Threads" (ISCA 1992) — one of the earliest simultaneous
// multithreading (SMT) designs.
//
// The package bundles:
//
//   - a cycle-level simulator of the paper's multithreaded processor
//     (thread slots, shared functional units, scoreboarding, standby
//     stations, rotating-priority instruction schedule units, queue
//     registers, fast-fork/kill/priority-store, context frames with
//     data-absence traps),
//   - the baseline superpipelined RISC machine the paper compares against,
//   - an assembler for the machine's RISC instruction set,
//   - MinC, a small C-like kernel-language compiler targeting the ISA,
//   - the paper's workloads (a synthetic ray-tracing kernel, Livermore
//     Kernel 1, a linked-list while loop, a Livermore Kernel 5 doacross
//     recurrence, and a MinC-compiled radiosity gather), and
//   - runners that regenerate every table of the paper's evaluation
//     (Tables 2-5) plus its in-text experiments and a dozen extensions.
//
// Quick start:
//
//	prog, err := hirata.Assemble(src)
//	m, err := prog.NewMemory(1024)
//	res, err := hirata.RunMT(hirata.MTConfig{ThreadSlots: 4, StandbyStations: true}, prog.Text, m)
//	fmt.Println(res.Cycles, res.IPC())
//
// See the examples/ directory for runnable programs and cmd/hirata-bench
// for the paper-reproduction harness.
package hirata

import (
	"fmt"
	"strings"

	"hirata/internal/asm"
	"hirata/internal/buildinfo"
	"hirata/internal/core"
	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/lint"
	"hirata/internal/mem"
	"hirata/internal/minc"
	"hirata/internal/obs"
	"hirata/internal/risc"
	"hirata/internal/runledger"
	"hirata/internal/sched"
	"hirata/internal/trace"
	"hirata/internal/workload"
)

// Re-exported configuration and result types. The aliases expose the full
// simulator APIs as this module's public surface.
type (
	// MTConfig configures the multithreaded processor (thread slots,
	// load/store units, standby stations, rotation, issue width, ...).
	MTConfig = core.Config
	// MTResult reports a multithreaded run (cycles, per-unit utilization,
	// per-slot stalls).
	MTResult = core.Result
	// RISCConfig configures the baseline superpipelined RISC machine.
	RISCConfig = risc.Config
	// RISCResult reports a baseline run.
	RISCResult = risc.Result
	// Program is an assembled program: text, data image, symbols.
	Program = asm.Program
	// Memory is the word-addressed data memory.
	Memory = mem.Memory
	// Instruction is one decoded machine instruction.
	Instruction = isa.Instruction
	// UnitClass identifies a functional-unit class.
	UnitClass = isa.UnitClass
	// Strategy selects a static code scheduling algorithm (§2.3.2).
	Strategy = sched.Strategy
)

// Static scheduling strategies (Table 4), plus the software-pipelining
// contrast of §2.3.2.
const (
	ScheduleNone      = sched.None
	ScheduleStrategyA = sched.StrategyA
	ScheduleStrategyB = sched.StrategyB
	ScheduleSWP       = sched.StrategySWP
)

// Static verification (see internal/lint and docs/LINT.md).
type (
	// LintDiagnostic is one finding of the static program verifier.
	LintDiagnostic = lint.Diagnostic
	// LintConfig tunes the static verifier (thread entry points, queue
	// depth).
	LintConfig = lint.Config
	// LintCode identifies a diagnostic kind (L001..L017).
	LintCode = lint.Code
	// LintBounds is the static lower-bound report (lint.ComputeBounds).
	LintBounds = lint.Bounds
	// LintMachine is the machine shape the static bound is computed
	// against.
	LintMachine = lint.Machine
)

// Lint statically verifies an assembled program: CFG construction per
// thread entry point, must-defined register dataflow, queue-register ring
// protocol checks, whole-program checks (unreachable code, bad branch
// targets, guaranteed queue deadlocks, thread-control misuse), and the
// cross-thread abstract interpretation (data races, address safety, dead
// stores, statically decided branches). An empty result means the program
// is clean.
func Lint(p *Program) []LintDiagnostic {
	return lint.AnalyzeProgram(p, LintConfig{InterThread: true})
}

// LintWithConfig is Lint with explicit entry points and queue depth.
func LintWithConfig(p *Program, cfg LintConfig) []LintDiagnostic {
	return lint.AnalyzeProgram(p, cfg)
}

// LintText verifies a bare instruction sequence (no source positions).
func LintText(text []Instruction, cfg LintConfig) []LintDiagnostic {
	return lint.AnalyzeText(text, cfg)
}

// StaticBounds computes the static lower bound on execution cycles for a
// program text on the given machine configuration and thread start PCs
// (nil means one thread at PC 0). The bound is a certificate: no run of
// the program on that machine finishes in fewer cycles, so the gap to a
// measured Result.Cycles is the schedule-quality headroom.
func StaticBounds(cfg MTConfig, text []Instruction, startPCs ...int64) LintBounds {
	eff := cfg.Effective()
	m := LintMachine{
		ThreadSlots:      eff.ThreadSlots,
		IssueWidth:       eff.IssueWidth,
		MaxIssuePerCycle: eff.MaxIssuePerCycle,
	}
	for u := isa.UnitClass(1); int(u) <= isa.NumUnitClasses; u++ {
		m.Units[u] = eff.UnitCount(u)
	}
	entries := make([]int, 0, len(startPCs))
	for _, pc := range startPCs {
		entries = append(entries, int(pc))
	}
	return lint.ComputeBounds(text, entries, m)
}

// lintConfigForRun maps a run's machine configuration and explicit start
// PCs onto the verifier's configuration, including the cross-thread
// analysis sized to the machine (thread slots, memory words).
func lintConfigForRun(cfg MTConfig, m *Memory, startPCs []int64) LintConfig {
	lc := LintConfig{
		QueueDepth:  cfg.QueueDepth,
		ThreadSlots: cfg.ThreadSlots,
		InterThread: true,
	}
	if m != nil {
		lc.MemWords = m.Size()
	}
	for _, pc := range startPCs {
		lc.Entries = append(lc.Entries, int(pc))
	}
	return lc
}

// strictVerify runs the verifier over text and returns an error carrying
// every finding, for the StrictVerify run modes.
func strictVerify(text []Instruction, cfg LintConfig) error {
	ds := lint.AnalyzeText(text, cfg)
	if len(ds) == 0 {
		return nil
	}
	msgs := make([]string, len(ds))
	for i, d := range ds {
		msgs[i] = d.String()
	}
	return fmt.Errorf("hirata: strict verify found %d issue(s):\n  %s",
		len(ds), strings.Join(msgs, "\n  "))
}

// Assemble translates assembly source into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders instruction text as assembly source.
func Disassemble(text []Instruction) string { return asm.Disassemble(text) }

// NewMemory allocates a zeroed word-addressed memory.
func NewMemory(words int) *Memory { return mem.NewMemory(words) }

// NewMemoryWithRemote allocates a memory whose tail addresses model remote
// memory in a distributed shared memory system.
func NewMemoryWithRemote(words int, remoteBase int64, latency int) *Memory {
	return mem.NewMemoryWithRemote(words, remoteBase, latency)
}

// RunOptions attaches instrumentation to a run. The zero value runs the
// bare machine.
type RunOptions struct {
	// Observers receive the pipeline event stream: a *Collector, a
	// *TextTracer, or any custom Observer. Every *Collector among them is
	// finalized against the run's Result before the run returns.
	// Observers do not disarm quiescent-cycle skipping, so an observed run
	// takes the bare run's steps and produces the bare Result.
	Observers []Observer
}

// Run simulates a program on the multithreaded processor with opt
// attached. Threads start at the given program counters (default: one
// thread at 0). With cfg.StrictVerify set, a program the verifier has
// findings for is refused. When a run ledger is attached (SetRunLedger),
// the completed run is recorded, with the first Collector's exact CPI
// stack when opt provides one.
func Run(cfg MTConfig, text []Instruction, m *Memory, opt RunOptions, startPCs ...int64) (MTResult, error) {
	if cfg.StrictVerify {
		if err := strictVerify(text, lintConfigForRun(cfg, m, startPCs)); err != nil {
			return MTResult{}, err
		}
	}
	rec := recordBegin(func() *runledger.Pending { return runledger.Begin(cfg, text, m, startPCs) })
	p, err := core.New(cfg, text, m)
	if err != nil {
		return MTResult{}, err
	}
	for _, pc := range startPCs {
		if err := p.StartThread(pc); err != nil {
			return MTResult{}, err
		}
	}
	return run(p, opt, rec)
}

// RunMT is Run without options.
func RunMT(cfg MTConfig, text []Instruction, m *Memory, startPCs ...int64) (MTResult, error) {
	return Run(cfg, text, m, RunOptions{}, startPCs...)
}

// run is the tail of every simulation: it attaches opt to the built
// processor, runs it, finalizes every Collector against the Result and
// commits the ledger record.
func run(p *core.Processor, opt RunOptions, rec recording) (MTResult, error) {
	for _, o := range opt.Observers {
		p.Observe(o)
	}
	res, err := p.Run()
	if err != nil {
		return res, err
	}
	for _, o := range opt.Observers {
		if c, ok := o.(*Collector); ok {
			c.Finalize(res)
		}
	}
	rec.commit(res, opt)
	return res, nil
}

// Observability (see internal/obs and docs/OBSERVABILITY.md).
type (
	// Observer receives the simulator's pipeline event stream.
	Observer = core.Observer
	// MultiObserver fans events out to several observers.
	MultiObserver = core.MultiObserver
	// Collector aggregates run totals, a per-PC hotspot profile, interval
	// metrics and the CPI stack, and exports Prometheus text format and
	// annotated profiles. Built with a RingCapacity, it also records
	// events into a bounded ring, which the Chrome Trace Event JSON
	// (Perfetto), critical-path and unit/standby what-if exports replay.
	Collector = obs.Collector
	// CollectorOptions configure a Collector: ring capacity (the zero
	// value keeps no ring; pass DefaultRingCapacity to replay events),
	// metrics interval and stall-event retention.
	CollectorOptions = obs.Options
	// Profile is a per-PC hotspot profile extracted from a Collector.
	Profile = obs.Profile
	// MetricsSample is one closed interval of the metrics time series.
	MetricsSample = obs.Sample
	// TextTracer prints pipeline events to a writer, one line per event.
	TextTracer = core.TextTracer
	// CPIStack is the per-slot cycle-accounting result: every (slot, cycle)
	// classified into a hierarchical CPI bucket.
	CPIStack = obs.CPIStack
	// CritPath is the run's dynamic critical path with a per-cause
	// breakdown and per-instruction attribution.
	CritPath = obs.CritPath
	// WhatIfScenario is one parsed what-if question ("+1 alu", "+1 slot").
	WhatIfScenario = obs.Scenario
	// WhatIfEstimate bounds a scenario's effect as a cycle interval.
	WhatIfEstimate = obs.Estimate
)

// DefaultRingCapacity is the event ring size, in events, for a Collector
// whose events are replayed.
const DefaultRingCapacity = obs.DefaultRingCapacity

// ParseWhatIfScenarios parses a comma-separated list of what-if scenarios
// such as "+1 alu", "+1 ls", "+1 slot" or "+1 standby".
func ParseWhatIfScenarios(list string) ([]WhatIfScenario, error) { return obs.ParseScenarios(list) }

// FormatWhatIfEstimates renders what-if estimates as an aligned text block.
func FormatWhatIfEstimates(ests []WhatIfEstimate) string { return obs.FormatEstimates(ests) }

// NewCollector builds an event collector for a machine of the given shape.
func NewCollector(cfg MTConfig, opt CollectorOptions) *Collector {
	return obs.NewCollector(cfg, opt)
}

// ServeObservability starts an HTTP server exposing a collector's /metrics,
// /metrics.json, /trace.json, /profile and /debug/pprof endpoints, plus
// the cross-run /runs endpoints backed by runs. prog may be nil; a nil runs
// serves 503 on /runs. It returns the bound address (useful with ":0") and
// a shutdown function.
func ServeObservability(addr string, c *Collector, prog *Program, runs RunsSource) (string, func() error, error) {
	return obs.Serve(addr, c, prog, runs)
}

// Version reports the binary's build identity (VCS revision, dirty flag, Go
// version) as embedded by the Go toolchain; "unknown" outside a VCS build.
func Version() string { return buildinfo.Get().String() }

// RunRISC simulates a program on the baseline RISC machine.
func RunRISC(cfg RISCConfig, text []Instruction, m *Memory) (RISCResult, error) {
	if cfg.StrictVerify {
		if err := strictVerify(text, LintConfig{}); err != nil {
			return RISCResult{}, err
		}
	}
	mc, err := risc.New(cfg, text, m)
	if err != nil {
		return RISCResult{}, err
	}
	return mc.Run()
}

// Interpret runs a program on the functional (untimed) golden model and
// returns the number of instructions executed.
func Interpret(text []Instruction, m *Memory) (uint64, error) {
	ip := exec.NewInterp(text, m)
	if err := ip.Run(); err != nil {
		return ip.Steps(), err
	}
	return ip.Steps(), nil
}

// ScheduleBlock applies a static code scheduling strategy to a branch-free
// basic block (§2.3.2).
func ScheduleBlock(block []Instruction, s Strategy, threads, lsUnits int) ([]Instruction, error) {
	return sched.Schedule(block, s, sched.Options{Threads: threads, LoadStoreUnits: lsUnits})
}

// Trace types: the paper's §3 methodology drives the simulator with traced
// instruction sequences.
type (
	// TraceRecord is one dynamically executed instruction.
	TraceRecord = trace.Record
	// TraceMix summarises a trace's dynamic instruction mix.
	TraceMix = trace.Mix
	// TraceInput feeds one record into trace-driven replay.
	TraceInput = core.TraceInput
)

// RecordTrace runs a single-threaded program on the functional model and
// returns its dynamic instruction trace.
func RecordTrace(text []Instruction, m *Memory) ([]TraceRecord, error) {
	return trace.RecordProgram(text, m, 0)
}

// TraceStats computes the dynamic instruction mix of a trace.
func TraceStats(recs []TraceRecord) TraceMix { return trace.Stats(recs) }

// ReplayTraces runs trace-driven simulation with opt attached: thread i
// replays traces[i]. A slice passed for several threads is converted once,
// so the copies reach the core as one trace. A replay has no program to
// verify, so StrictVerify does not apply; an attached ledger records it
// like a program run, keyed on the traces.
func ReplayTraces(cfg MTConfig, traces [][]TraceRecord, opt RunOptions) (MTResult, error) {
	in := make([][]core.TraceInput, len(traces))
	for i, tr := range traces {
		if j := sameTrace(traces[:i], tr); j >= 0 {
			in[i] = in[j]
			continue
		}
		in[i] = traceInputs(tr)
	}
	rec := recordBegin(func() *runledger.Pending { return runledger.BeginTraces(cfg, in) })
	p, err := core.NewTraceDriven(cfg, in)
	if err != nil {
		return MTResult{}, err
	}
	return run(p, opt, rec)
}

// sameTrace returns the index of the first of traces that shares tr's
// backing array and length, or -1.
func sameTrace(traces [][]TraceRecord, tr []TraceRecord) int {
	for j, o := range traces {
		if len(o) == len(tr) && len(tr) > 0 && &o[0] == &tr[0] {
			return j
		}
	}
	return -1
}

// traceInputs converts recorded trace records for core replay.
func traceInputs(recs []TraceRecord) []core.TraceInput {
	out := make([]core.TraceInput, len(recs))
	for i, r := range recs {
		out[i] = core.TraceInput{Ins: r.Ins, Addr: r.Addr}
	}
	return out
}

// Workload construction (see internal/workload for details).
type (
	// RayTraceConfig parameterises the synthetic ray tracer (§3.2).
	RayTraceConfig = workload.RayTraceConfig
	// RayTrace bundles its sequential and parallel programs.
	RayTrace = workload.RayTrace
	// LivermoreConfig parameterises Livermore Kernel 1 (§3.4).
	LivermoreConfig = workload.LivermoreConfig
	// Livermore bundles its programs.
	Livermore = workload.Livermore
	// LinkedListConfig parameterises the while-loop workload (§3.5).
	LinkedListConfig = workload.LinkedListConfig
	// LinkedList bundles its programs.
	LinkedList = workload.LinkedList
	// RecurrenceConfig parameterises the doacross workload (Livermore
	// Kernel 5, communicated through queue registers; §2.3.1).
	RecurrenceConfig = workload.RecurrenceConfig
	// Recurrence bundles its programs.
	Recurrence = workload.Recurrence
	// RadiosityConfig parameterises the MinC-compiled radiosity gather
	// (the paper's second named graphics algorithm).
	RadiosityConfig = workload.RadiosityConfig
	// Radiosity bundles its compiled program and scene.
	Radiosity = workload.Radiosity
)

// BuildRayTrace generates the synthetic ray-tracing workload.
func BuildRayTrace(cfg RayTraceConfig) (*RayTrace, error) { return workload.BuildRayTrace(cfg) }

// BuildLivermore generates the Livermore Kernel 1 workload.
func BuildLivermore(cfg LivermoreConfig) (*Livermore, error) { return workload.BuildLivermore(cfg) }

// BuildLinkedList generates the linked-list while-loop workload.
func BuildLinkedList(cfg LinkedListConfig) (*LinkedList, error) { return workload.BuildLinkedList(cfg) }

// BuildRecurrence generates the doacross (Livermore Kernel 5) workload.
func BuildRecurrence(cfg RecurrenceConfig) (*Recurrence, error) { return workload.BuildRecurrence(cfg) }

// BuildRadiosity generates and compiles the radiosity workload.
func BuildRadiosity(cfg RadiosityConfig) (*Radiosity, error) { return workload.BuildRadiosity(cfg) }

// CompileMinC compiles a MinC (C-like kernel language) source file into an
// assembled Program; see docs/MINC.md and cmd/hirata-cc.
func CompileMinC(src string) (*Program, error) { return minc.Compile(src) }

// SetMinCThreads stores the thread count where a compiled MinC program's
// nthreads() intrinsic reads it.
func SetMinCThreads(p *Program, m *Memory, threads int) { minc.SetThreads(p, m, threads) }
