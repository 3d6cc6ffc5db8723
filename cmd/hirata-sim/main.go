// Command hirata-sim assembles and runs a program on one of the three
// machine models: the multithreaded processor (mt), the baseline
// superpipelined RISC (risc), or the untimed functional interpreter
// (interp).
//
// Usage:
//
//	hirata-sim [flags] program.s      (or program.mc for MinC source)
//
//	hirata-sim -machine mt -slots 4 -ls 2 -standby prog.s
//	hirata-sim -machine risc prog.s
//	hirata-sim -machine interp -dump-mem 100:110 prog.s
//
// Observability (mt only; see docs/OBSERVABILITY.md):
//
//	hirata-sim -chrome-trace out.json prog.s   Perfetto timeline → out.json
//	hirata-sim -profile prog.s                 per-PC hotspot report
//	hirata-sim -metrics-interval 100 prog.s    interval metrics table
//	hirata-sim -http :8080 prog.s              live /metrics, /trace.json, pprof
//	hirata-sim -cpi-stack prog.s               per-slot CPI-stack accounting
//	hirata-sim -cpi-folded out.folded prog.s   folded stacks for flamegraph.pl
//	hirata-sim -critpath prog.s                dynamic critical path + breakdown
//	hirata-sim -whatif "+1 alu,+1 slot" prog.s bounded what-if estimates
//	hirata-sim -record runs.ledger prog.s      append the run to a content-
//	                                           addressed ledger (hirata-report)
//	hirata-sim -static-check prog.s            verify first (refuse on provable
//	                                           deadlocks), then print the static
//	                                           cycle bound next to the measured run
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"hirata"
)

func main() {
	var (
		machine   = flag.String("machine", "mt", "machine model: mt, risc, or interp")
		slots     = flag.Int("slots", 1, "thread slots (mt)")
		ls        = flag.Int("ls", 1, "load/store units")
		standby   = flag.Bool("standby", true, "standby stations (mt)")
		width     = flag.Int("width", 1, "superscalar issue width per slot (mt)")
		rotation  = flag.Int("rotation", 8, "priority rotation interval in cycles (mt)")
		explicit  = flag.Bool("explicit", false, "start in explicit-rotation mode (mt)")
		frames    = flag.Int("frames", 0, "context frames (mt; 0 = one per slot)")
		threads   = flag.Int("threads", 1, "threads started at pc 0 (mt)")
		headroom  = flag.Int("headroom", 4096, "extra data-memory words beyond the data image")
		dumpMem   = flag.String("dump-mem", "", "memory range to print after the run, e.g. 100:110")
		pipeline  = flag.Bool("pipeline", false, "print a cycle-by-cycle pipeline event trace (mt)")
		statCheck = flag.Bool("static-check", false, "verify before running: refuse on statically provable deadlocks (L015..L017), warn on other findings, and print the static cycle bound next to the measured result (mt)")
		verbose   = flag.Bool("v", false, "print full statistics")

		chromeTrace  = flag.String("chrome-trace", "", "write a Chrome Trace Event JSON timeline to this file (mt; load in ui.perfetto.dev)")
		profileOut   = flag.Bool("profile", false, "print a per-PC hotspot report after the run (mt)")
		metricsEvery = flag.Int("metrics-interval", 0, "sample interval metrics every N cycles and print the time series (mt)")
		httpAddr     = flag.String("http", "", "serve live /metrics, /metrics.json, /trace.json, /profile and pprof on this address during the run (mt)")
		cpiStack     = flag.Bool("cpi-stack", false, "print the per-slot CPI-stack cycle-accounting table (mt)")
		cpiFolded    = flag.String("cpi-folded", "", "write the CPI stack in collapsed/folded format to this file (mt; feed to flamegraph.pl)")
		critPathOut  = flag.Bool("critpath", false, "print the dynamic critical path with breakdown (mt)")
		critPathJSON = flag.String("critpath-json", "", "write the critical-path analysis as JSON to this file (mt)")
		whatIf       = flag.String("whatif", "", "comma-separated what-if scenarios to estimate, e.g. \"+1 alu,+1 ls,+1 slot\" (mt)")

		selfProfile = flag.Bool("self-profile", false, "profile the simulator itself: print the sampled cycle-loop phase breakdown and event-horizon skip counts after the run (mt; docs/OBSERVABILITY.md)")
		hostTrace   = flag.String("host-trace", "", "with -self-profile, write the host-side Chrome Trace Event JSON here (mt)")
		recordPath  = flag.String("record", "", "append the completed run to this content-addressed ledger file (mt; inspect with hirata-report)")
		runTag      = flag.String("run-tag", "", "lineage tag stored in the run record (with -record)")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("hirata-sim", hirata.Version())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hirata-sim [flags] program.s")
		flag.Usage()
		os.Exit(2)
	}
	if *threads < 0 {
		fail(fmt.Errorf("-threads must not be negative, got %d", *threads))
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	// .mc files are MinC source; everything else is assembly.
	var prog *hirata.Program
	if strings.HasSuffix(flag.Arg(0), ".mc") {
		prog, err = hirata.CompileMinC(string(src))
	} else {
		prog, err = hirata.Assemble(string(src))
	}
	if err != nil {
		fail(err)
	}
	m, err := prog.NewMemory(int64(*headroom))
	if err != nil {
		fail(err)
	}

	switch *machine {
	case "mt":
		cfg := hirata.MTConfig{
			ThreadSlots:      *slots,
			LoadStoreUnits:   *ls,
			StandbyStations:  *standby,
			IssueWidth:       *width,
			RotationInterval: *rotation,
			ExplicitRotation: *explicit,
			ContextFrames:    *frames,
		}
		pcs := make([]int64, *threads)
		hirata.SetMinCThreads(prog, m, *slots)

		if *statCheck {
			if err := staticCheck(prog, cfg, m, pcs); err != nil {
				fail(err)
			}
		}

		var observers []hirata.Observer
		var col *hirata.Collector
		if *chromeTrace != "" || *profileOut || *metricsEvery > 0 || *httpAddr != "" ||
			*cpiStack || *cpiFolded != "" || *critPathOut || *critPathJSON != "" || *whatIf != "" {
			col = hirata.NewCollector(cfg, hirata.CollectorOptions{MetricsInterval: *metricsEvery})
			observers = append(observers, col)
		}
		if *pipeline {
			observers = append(observers, &hirata.TextTracer{W: os.Stdout})
		}
		var prof *hirata.HostProfiler
		if *selfProfile {
			prof = hirata.NewHostProfiler(hirata.HostProfilerOptions{})
		}
		var led *hirata.RunLedger
		if *recordPath != "" {
			led, err = hirata.OpenRunLedger(*recordPath)
			if err != nil {
				fail(err)
			}
			hirata.SetRunLedger(led, *runTag)
		}
		var shutdown func() error
		if *httpAddr != "" {
			// Bind before the run starts so the live endpoints exist for its
			// whole duration. With -self-profile the profiler also backs
			// /hostmetrics.
			var host hirata.HostSource
			if prof != nil {
				host = prof
			}
			var runs hirata.RunsSource
			if led != nil {
				runs = led
			}
			bound, stop, serr := hirata.ServeObservabilityWithSources(*httpAddr, col, prog, host, runs)
			if serr != nil {
				fail(serr)
			}
			shutdown = stop
			fmt.Fprintf(os.Stderr, "hirata-sim: serving observability at http://%s\n", bound)
		}

		res, err := hirata.Run(cfg, prog.Text, m, hirata.RunOptions{Observers: observers, Host: prof}, pcs...)
		if err != nil {
			fail(err)
		}
		if *verbose {
			fmt.Print(res.String())
		} else {
			fmt.Printf("cycles=%d instructions=%d ipc=%.3f\n", res.Cycles, res.Instructions, res.IPC())
		}
		if *statCheck {
			printStaticBound(cfg, prog, res.Cycles, pcs)
		}
		if led != nil {
			if lerr := hirata.RunLedgerError(); lerr != nil {
				fail(lerr)
			}
			if es := led.Last(1); len(es) == 1 {
				fmt.Fprintf(os.Stderr, "hirata-sim: recorded run %s (key %s) to %s\n",
					es[0].Hash[:12], es[0].Record.Key[:12], *recordPath)
			}
		}

		if *chromeTrace != "" {
			f, ferr := os.Create(*chromeTrace)
			if ferr != nil {
				fail(ferr)
			}
			if err := col.WriteChromeTrace(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "hirata-sim: wrote %s (load in ui.perfetto.dev)\n", *chromeTrace)
		}
		if *metricsEvery > 0 {
			fmt.Println()
			if err := col.WriteIntervalTable(os.Stdout); err != nil {
				fail(err)
			}
		}
		if *profileOut {
			fmt.Println()
			if err := col.Profile().WriteAnnotated(os.Stdout, prog); err != nil {
				fail(err)
			}
		}
		if *cpiStack {
			fmt.Println()
			if err := col.CPIStack().WriteCPITable(os.Stdout); err != nil {
				fail(err)
			}
		}
		if *cpiFolded != "" {
			f, ferr := os.Create(*cpiFolded)
			if ferr != nil {
				fail(ferr)
			}
			if err := col.CPIStack().WriteCPIFolded(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "hirata-sim: wrote %s (feed to flamegraph.pl or speedscope)\n", *cpiFolded)
		}
		if *critPathOut || *critPathJSON != "" {
			cp, cerr := col.CritPath()
			if cerr != nil {
				fail(cerr)
			}
			if *critPathOut {
				fmt.Println()
				if err := cp.WriteText(os.Stdout, prog); err != nil {
					fail(err)
				}
			}
			if *critPathJSON != "" {
				cp.Annotate(prog)
				f, ferr := os.Create(*critPathJSON)
				if ferr != nil {
					fail(ferr)
				}
				if err := cp.WriteJSON(f); err != nil {
					fail(err)
				}
				if err := f.Close(); err != nil {
					fail(err)
				}
				fmt.Fprintf(os.Stderr, "hirata-sim: wrote %s\n", *critPathJSON)
			}
		}
		if *whatIf != "" {
			ests, werr := col.WhatIfAll(*whatIf)
			if werr != nil {
				fail(werr)
			}
			fmt.Println()
			fmt.Print(hirata.FormatWhatIfEstimates(ests))
		}
		if prof != nil {
			fmt.Println()
			fmt.Print(prof.Profile().Format())
			if *hostTrace != "" {
				f, ferr := os.Create(*hostTrace)
				if ferr != nil {
					fail(ferr)
				}
				if err := hirata.WriteHostTrace(f, prof, nil); err != nil {
					fail(err)
				}
				if err := f.Close(); err != nil {
					fail(err)
				}
				fmt.Fprintf(os.Stderr, "hirata-sim: wrote %s (load in ui.perfetto.dev)\n", *hostTrace)
			}
		}
		if shutdown != nil {
			fmt.Fprintln(os.Stderr, "hirata-sim: run finished; endpoints stay up — interrupt (ctrl-C) to exit")
			waitForInterrupt()
			_ = shutdown()
		}
	case "risc":
		res, err := hirata.RunRISC(hirata.RISCConfig{LoadStoreUnits: *ls}, prog.Text, m)
		if err != nil {
			fail(err)
		}
		fmt.Printf("cycles=%d instructions=%d cpi=%.3f branches=%d\n",
			res.Cycles, res.Instructions, res.CPI(), res.Branches)
	case "interp":
		steps, err := hirata.Interpret(prog.Text, m)
		if err != nil {
			fail(err)
		}
		fmt.Printf("instructions=%d\n", steps)
	default:
		fail(fmt.Errorf("unknown machine %q", *machine))
	}

	if *dumpMem != "" {
		lo, hi, err := parseRange(*dumpMem)
		if err != nil {
			fail(err)
		}
		for a := lo; a < hi; a++ {
			v, err := m.Load(a)
			if err != nil {
				fail(err)
			}
			fmt.Printf("mem[%d] = %#016x (int %d, float %g)\n", a, v, int64(v), m.FloatAt(a))
		}
	}
}

// staticCheck runs the verifier with the queue-protocol liveness checks
// enabled before simulating. A provable deadlock (L015..L017) refuses the
// run — simulating it would only spin to MaxCycles — while every other
// finding is reported as a warning and the run proceeds.
func staticCheck(prog *hirata.Program, cfg hirata.MTConfig, m *hirata.Memory, pcs []int64) error {
	lc := hirata.LintConfig{
		QueueDepth:  cfg.QueueDepth,
		ThreadSlots: cfg.ThreadSlots,
		InterThread: true,
		Deadlock:    true,
		MemWords:    m.Size(),
	}
	seen := map[int]bool{}
	for _, pc := range pcs {
		if !seen[int(pc)] {
			seen[int(pc)] = true
			lc.Entries = append(lc.Entries, int(pc))
		}
	}
	fatal := 0
	for _, d := range hirata.LintWithConfig(prog, lc) {
		switch d.Code {
		case "L015", "L016", "L017":
			fatal++
			fmt.Fprintf(os.Stderr, "hirata-sim: static-check: %s\n", d)
		default:
			fmt.Fprintf(os.Stderr, "hirata-sim: static-check warning: %s\n", d)
		}
	}
	if fatal > 0 {
		return fmt.Errorf("static-check found %d provable deadlock(s); refusing to run", fatal)
	}
	return nil
}

// printStaticBound puts the static lower bound next to the measured cycle
// count; the gap is the schedule-quality headroom the machine left on the
// table.
func printStaticBound(cfg hirata.MTConfig, prog *hirata.Program, measured uint64, pcs []int64) {
	b := hirata.StaticBounds(cfg, prog.Text, pcs...)
	if b.Unbounded {
		fmt.Println("static-bound=unbounded (some thread never reaches halt)")
		return
	}
	gap := 0.0
	if b.Bound > 0 {
		gap = (float64(measured) - float64(b.Bound)) / float64(b.Bound) * 100
	}
	fmt.Printf("static-bound=%d measured=%d headroom=%.1f%%\n", b.Bound, measured, gap)
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

func parseRange(s string) (lo, hi int64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q, want LO:HI", s)
	}
	if lo, err = strconv.ParseInt(parts[0], 0, 64); err != nil {
		return
	}
	hi, err = strconv.ParseInt(parts[1], 0, 64)
	return
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hirata-sim:", err)
	os.Exit(1)
}
