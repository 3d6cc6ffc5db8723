// Command hirata-trace works with dynamic instruction traces — the
// simulation methodology of the paper's §3, which drives the timing
// simulator with traced instruction sequences.
//
// Usage:
//
//	hirata-trace -record prog.s -o prog.trace     # run + record
//	hirata-trace -stats prog.trace                # dynamic mix
//	hirata-trace -replay prog.trace -slots 4 -copies 4
//
// Replaying N copies of a trace on S thread slots measures multiprogrammed
// throughput exactly the way the paper measures its ray tracer. A replay
// can additionally export a Perfetto timeline (-chrome-trace) and an
// interval metrics time series (-metrics-interval); see
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"hirata"
	"hirata/internal/trace"
)

func main() {
	var (
		record  = flag.String("record", "", "assembly program to run and record")
		out     = flag.String("o", "", "output trace file for -record")
		stats   = flag.String("stats", "", "trace file to summarise")
		replay  = flag.String("replay", "", "trace file to replay on the multithreaded machine")
		slots   = flag.Int("slots", 4, "thread slots for -replay")
		ls      = flag.Int("ls", 2, "load/store units for -replay")
		copies  = flag.Int("copies", 0, "trace copies to replay (default: one per slot)")
		standby = flag.Bool("standby", true, "standby stations for -replay")

		chromeTrace  = flag.String("chrome-trace", "", "write a Chrome Trace Event JSON timeline of the replay (load in ui.perfetto.dev)")
		metricsEvery = flag.Int("metrics-interval", 0, "sample interval metrics every N cycles during -replay and print the time series")
		cpiStack     = flag.Bool("cpi-stack", false, "print the per-slot CPI-stack cycle accounting of the replay")
		critPathOut  = flag.Bool("critpath", false, "print the replay's dynamic critical path with breakdown")
		whatIf       = flag.String("whatif", "", "comma-separated what-if scenarios to estimate from the replay, e.g. \"+1 alu,+1 ls,+1 slot\"")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("hirata-trace", hirata.Version())
		return
	}

	switch {
	case *record != "":
		src, err := os.ReadFile(*record)
		check(err)
		prog, err := hirata.Assemble(string(src))
		check(err)
		m, err := prog.NewMemory(4096)
		check(err)
		recs, err := trace.RecordProgram(prog.Text, m, 0)
		check(err)
		if *out == "" {
			fmt.Print(trace.Stats(recs).String())
			return
		}
		f, err := os.Create(*out)
		check(err)
		check(trace.Write(f, recs))
		check(f.Close())
		fmt.Printf("recorded %d instructions to %s\n", len(recs), *out)

	case *stats != "":
		recs := load(*stats)
		fmt.Print(trace.Stats(recs).String())

	case *replay != "":
		if *slots < 0 {
			check(fmt.Errorf("-slots must not be negative, got %d", *slots))
		}
		recs := load(*replay)
		n := *copies
		if n <= 0 {
			n = *slots
		}
		traces := make([][]hirata.TraceRecord, n)
		for i := range traces {
			traces[i] = recs
		}
		cfg := hirata.MTConfig{
			ThreadSlots:     *slots,
			LoadStoreUnits:  *ls,
			StandbyStations: *standby,
		}
		var opt hirata.RunOptions
		var col *hirata.Collector
		if *chromeTrace != "" || *metricsEvery > 0 || *cpiStack || *critPathOut || *whatIf != "" {
			col = hirata.NewCollector(cfg, hirata.CollectorOptions{MetricsInterval: *metricsEvery})
			opt.Observers = []hirata.Observer{col}
		}
		res, err := hirata.ReplayTraces(cfg, traces, opt)
		check(err)
		fmt.Printf("replayed %d x %d instructions on %d slots\n", n, len(recs), *slots)
		fmt.Print(res.String())
		if *chromeTrace != "" {
			f, err := os.Create(*chromeTrace)
			check(err)
			check(col.WriteChromeTrace(f))
			check(f.Close())
			fmt.Printf("wrote %s (load in ui.perfetto.dev)\n", *chromeTrace)
		}
		if *metricsEvery > 0 {
			fmt.Println()
			check(col.WriteIntervalTable(os.Stdout))
		}
		if *cpiStack {
			fmt.Println()
			check(col.CPIStack().WriteCPITable(os.Stdout))
		}
		if *critPathOut {
			cp, err := col.CritPath()
			check(err)
			fmt.Println()
			check(cp.WriteText(os.Stdout, nil))
		}
		if *whatIf != "" {
			ests, err := col.WhatIfAll(*whatIf)
			check(err)
			fmt.Println()
			fmt.Print(hirata.FormatWhatIfEstimates(ests))
		}

	default:
		fmt.Fprintln(os.Stderr, "usage: hirata-trace -record prog.s [-o f] | -stats f | -replay f [-slots N -copies N]")
		os.Exit(2)
	}
}

func load(path string) []trace.Record {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	recs, err := trace.Read(f)
	check(err)
	return recs
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hirata-trace:", err)
		os.Exit(1)
	}
}
