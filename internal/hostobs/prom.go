package hostobs

import (
	"fmt"
	"io"

	"hirata/internal/core"
	"hirata/internal/obs"
)

// Export bundles the host-side sources behind one /hostmetrics exposition
// (obs.HostSource). Either field may be nil; the build-info gauge is always
// present so a scrape of a half-configured run still identifies the binary.
type Export struct {
	Prof  *Profiler
	Sweep *SweepRecorder
}

// WriteHostPrometheus writes the Prometheus text exposition of the
// simulator's own execution: build identity, cycle-loop phase nanoseconds,
// skip statistics and sweep telemetry. Naming follows the /metrics conventions
// (hirata_ namespace, counters end in _total; promlint-checked by
// TestHostPrometheusExpositionLint).
func (e Export) WriteHostPrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if werr := obs.WriteBuildInfo(w); werr != nil {
		return werr
	}
	if e.Prof != nil {
		writeProfilerProm(p, e.Prof)
	}
	if e.Sweep != nil {
		writeSweepProm(p, e.Sweep)
	}
	return err
}

func writeProfilerProm(p func(string, ...any), prof *Profiler) {
	pp := prof.Profile()
	p("# HELP hirata_host_steps_total Cycle-loop steps executed (stepCycle invocations).\n" +
		"# TYPE hirata_host_steps_total counter\n")
	p("hirata_host_steps_total %d\n", pp.Steps)
	p("# HELP hirata_host_sampled_steps_total Steps sampled for phase timing.\n" +
		"# TYPE hirata_host_sampled_steps_total counter\n")
	p("hirata_host_sampled_steps_total %d\n", pp.SampledSteps)
	p("# HELP hirata_host_sim_cycles_total Simulated cycles completed by profiled runs.\n" +
		"# TYPE hirata_host_sim_cycles_total counter\n")
	p("hirata_host_sim_cycles_total %d\n", pp.RunCycles)
	p("# HELP hirata_host_stepped_cycles_total Cycles actually simulated by stepCycle (completed runs).\n" +
		"# TYPE hirata_host_stepped_cycles_total counter\n")
	p("hirata_host_stepped_cycles_total %d\n", pp.SteppedCycles)
	p("# HELP hirata_host_skip_jumps_total Event-horizon fast-forwards taken.\n" +
		"# TYPE hirata_host_skip_jumps_total counter\n")
	p("hirata_host_skip_jumps_total %d\n", pp.SkipJumps)
	p("# HELP hirata_host_skipped_cycles_total Simulated cycles jumped by the event horizon.\n" +
		"# TYPE hirata_host_skipped_cycles_total counter\n")
	p("hirata_host_skipped_cycles_total %d\n", pp.SkippedCycles)
	p("# HELP hirata_host_phase_nanoseconds_total Sampled wall time per cycle-loop phase.\n" +
		"# TYPE hirata_host_phase_nanoseconds_total counter\n")
	for ph := core.HostPhase(0); ph < core.NumHostPhases; ph++ {
		p("hirata_host_phase_nanoseconds_total{phase=%q} %d\n", ph.String(), pp.Phases[ph].Nanos)
	}
}

func writeSweepProm(p func(string, ...any), rec *SweepRecorder) {
	_, total, workers, busy := rec.Cells()
	p("# HELP hirata_host_sweep_cells_total Sweep cells completed.\n" +
		"# TYPE hirata_host_sweep_cells_total counter\n")
	p("hirata_host_sweep_cells_total %d\n", total)
	p("# HELP hirata_host_sweep_busy_nanoseconds_total Summed cell execution time across workers.\n" +
		"# TYPE hirata_host_sweep_busy_nanoseconds_total counter\n")
	p("hirata_host_sweep_busy_nanoseconds_total %d\n", busy)
	p("# HELP hirata_host_sweep_workers Distinct sweep workers observed.\n" +
		"# TYPE hirata_host_sweep_workers gauge\n")
	p("hirata_host_sweep_workers %d\n", workers)
}

// WriteHostPrometheus lets a bare Profiler serve /hostmetrics directly
// (hirata-sim attaches no sweep recorder).
func (p *Profiler) WriteHostPrometheus(w io.Writer) error {
	return Export{Prof: p}.WriteHostPrometheus(w)
}
