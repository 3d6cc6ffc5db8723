package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"

	"hirata"
)

// selfProfileOutputs selects the artifacts of a -self-profile run.
type selfProfileOutputs struct {
	tracePath string // host Chrome Trace Event JSON
	jsonPath  string // machine-readable phase profile
	httpAddr  string // serve /metrics and /hostmetrics until interrupted
}

// runSelfProfile turns the simulator's observability on itself: it runs the
// representative 8-slot ray trace (the Table 2 configuration) with the host
// profiler attached, runs the speed-up sweep with sweep telemetry recording
// worker timelines, and prints the cycle-loop phase profile. Neither the
// profiler nor the pipeline collector -http attaches disarms quiescent-cycle
// skipping, so the profiled run steps exactly as an unprofiled one.
func runSelfProfile(w io.Writer, rt hirata.RayTraceConfig, out selfProfileOutputs) error {
	prof := hirata.NewHostProfiler(hirata.HostProfilerOptions{})
	rec := hirata.NewSweepRecorder()
	hirata.SetSweepTelemetry(rec)
	defer hirata.SetSweepTelemetry(nil)

	wl, err := hirata.BuildRayTrace(rt)
	if err != nil {
		return err
	}
	cfg := hirata.MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true}
	m, err := wl.NewMemory(wl.Par, cfg.ThreadSlots)
	if err != nil {
		return err
	}

	var shutdown func() error
	opt := hirata.RunOptions{Host: prof}
	if out.httpAddr != "" {
		col := hirata.NewCollector(cfg, hirata.CollectorOptions{MetricsInterval: 256})
		bound, stop, serr := hirata.ServeObservabilityWithHost(out.httpAddr, col, wl.Par,
			hirata.HostExport{Prof: prof, Sweep: rec})
		if serr != nil {
			return serr
		}
		shutdown = stop
		fmt.Fprintf(os.Stderr, "hirata-bench: serving /metrics and /hostmetrics at http://%s\n", bound)
		opt.Observers = []hirata.Observer{col}
	}
	res, err := hirata.Run(cfg, wl.Par.Text, m, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hirata-bench: profiled 8-slot ray trace: %d cycles, ipc %.3f\n",
		res.Cycles, res.IPC())

	// Exercise the sweep engine under telemetry so the host trace and
	// /hostmetrics carry worker timelines too.
	if _, err := hirata.RunSpeedupCurve(rt, 8); err != nil {
		return err
	}

	fmt.Fprintln(w, prof.Profile().Format())

	writeFile := func(path string, write func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			return err
		}
		return f.Close()
	}
	if out.tracePath != "" {
		if err := writeFile(out.tracePath, func(f io.Writer) error {
			return hirata.WriteHostTrace(f, prof, rec)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hirata-bench: wrote %s (load in ui.perfetto.dev)\n", out.tracePath)
	}
	if out.jsonPath != "" {
		if err := writeFile(out.jsonPath, prof.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hirata-bench: wrote %s\n", out.jsonPath)
	}
	if shutdown != nil {
		fmt.Fprintln(os.Stderr, "hirata-bench: profile served; interrupt (ctrl-C) to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		return shutdown()
	}
	return nil
}
