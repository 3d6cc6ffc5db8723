// Command hirata-bench regenerates the evaluation of Hirata et al. (ISCA
// 1992): Tables 2-5 and the in-text experiments (rotation-interval sweep,
// private instruction caches, functional-unit utilization), plus this
// repository's extensions (finite caches, queue-register depth, concurrent
// multithreading). Each table prints paper-reported values next to the
// values measured on this simulator.
//
// Usage:
//
//	hirata-bench                 # everything
//	hirata-bench -table 2        # one table
//	hirata-bench -extras         # extension experiments only
//	hirata-bench -rays 240 -n 400 -nodes 200   # workload sizes
//	hirata-bench -parallel 1     # sequential reference run (default: all CPUs)
//
// Observability (see docs/OBSERVABILITY.md):
//
//	hirata-bench -chrome-trace rt.json   # Perfetto timeline of the 8-slot ray-trace run
//	hirata-bench -http :8080             # live /metrics + pprof while the tables run
//	hirata-bench -ledger runs.ledger     # record every cell into a content-addressed
//	                                     # run ledger (inspect with hirata-report)
package main

import (
	"flag"
	"fmt"
	"os"

	"hirata"
	"hirata/cmd/internal/simcli"
)

func main() {
	var (
		table   = flag.String("table", "all", "which table to run: 2, 3, 4, 5, all, or none (only what other flags ask for)")
		extras  = flag.Bool("extras", false, "run only the extension experiments")
		rays    = flag.Int("rays", 240, "rays in the ray-tracing workload (Tables 2, 3)")
		spheres = flag.Int("spheres", 12, "spheres in the ray-tracing scene")
		n       = flag.Int("n", 400, "Livermore Kernel 1 iterations (Table 4)")
		nodes   = flag.Int("nodes", 200, "linked-list length (Table 5)")
		curve   = flag.Bool("curve", false, "print the slots-vs-speed-up sweep as CSV and exit")
		asJSON  = flag.Bool("json", false, "print Tables 2-5 and the speed-up curve as JSON and exit")

		chromeTrace = flag.String("chrome-trace", "", "record the representative 8-slot ray-trace run and write its Chrome Trace Event JSON timeline here")
		httpAddr    = flag.String("http", "", "serve live /metrics, /trace.json and pprof of the bench process on this address")
		parallel    = flag.Int("parallel", 0, "simulation cells to run concurrently (0 = GOMAXPROCS worth, 1 = sequential reference)")

		cpiFolded    = flag.String("cpi-folded", "", "record the representative run and write its CPI stack in collapsed/folded format here")
		critPathJSON = flag.String("critpath-json", "", "record the representative run and write its critical-path analysis as JSON here")
		whatIf       = flag.String("whatif", "", "record the representative run and print bounded what-if estimates, e.g. \"+1 alu,+1 ls,+1 slot\"")

		explore       = flag.Bool("explore", false, "search the design space with the analytic model, re-simulate the Pareto frontier, and validate the model against Tables 2-5 (docs/MODEL.md)")
		exploreJSON   = flag.String("explore-json", "", "with -explore, also write the exploration + validation report as JSON here")
		exploreMaxErr = flag.Float64("explore-max-err", 0, "with -explore, exit nonzero if any model error (frontier or Tables 2-5) exceeds this percentage (0 = no gate)")

		ledgerPath = flag.String("ledger", "", "append every simulation this process runs (table cells, sweep workers, explore re-sims) to this content-addressed run ledger (inspect with hirata-report)")
		runTag     = flag.String("run-tag", "", "lineage tag stored in recorded run records (with -ledger)")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	switch *table {
	case "2", "3", "4", "5", "all", "none":
	default:
		fmt.Fprintf(os.Stderr, "hirata-bench: -table must be 2, 3, 4, 5, all or none, got %q\n", *table)
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"rays", *rays}, {"spheres", *spheres}, {"n", *n}, {"nodes", *nodes}, {"parallel", *parallel}} {
		if err := simcli.NonNegative(f.name, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "hirata-bench:", err)
			os.Exit(2)
		}
	}
	if *version {
		fmt.Println("hirata-bench", hirata.Version())
		return
	}
	hirata.SetParallelism(*parallel)

	if *ledgerPath != "" {
		led, err := hirata.OpenRunLedger(*ledgerPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hirata-bench:", err)
			os.Exit(1)
		}
		hirata.SetRunLedger(led, *runTag)
		defer func() {
			if err := hirata.RunLedgerError(); err != nil {
				fmt.Fprintln(os.Stderr, "hirata-bench: run ledger:", err)
				os.Exit(1)
			}
			st := led.Stats()
			fmt.Fprintf(os.Stderr, "hirata-bench: ledger %s now holds %d records (%d appended, %d deduped this run)\n",
				*ledgerPath, st.Records, st.Appends, st.DedupHits)
		}()
	}

	rt := hirata.RayTraceConfig{Rays: *rays, Spheres: *spheres}
	if *explore {
		if err := runExplore(os.Stdout, rt, *n, *nodes, *exploreJSON, *exploreMaxErr); err != nil {
			fmt.Fprintln(os.Stderr, "hirata-bench:", err)
			os.Exit(1)
		}
		return
	}
	// The representative run's reports go to stderr, keeping stdout for
	// the tables and -json.
	if *chromeTrace != "" || *httpAddr != "" || *cpiFolded != "" || *critPathJSON != "" || *whatIf != "" {
		out := simcli.Outputs{Cmd: "hirata-bench", Stdout: os.Stderr, Stderr: os.Stderr,
			ChromeTrace: *chromeTrace, HTTP: *httpAddr, CPIFolded: *cpiFolded, CritPathJSON: *critPathJSON, WhatIf: *whatIf}
		defer out.Close()
		if err := recordRepresentative(rt, &out); err != nil {
			fmt.Fprintln(os.Stderr, "hirata-bench:", err)
			os.Exit(1)
		}
	}
	if *asJSON {
		rep, err := hirata.RunFullReport(rt, *n, *nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hirata-bench:", err)
			os.Exit(1)
		}
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hirata-bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	if *curve {
		cells, err := hirata.RunSpeedupCurve(rt, 8)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hirata-bench:", err)
			os.Exit(1)
		}
		fmt.Print(hirata.FormatSpeedupCurveCSV(cells))
		return
	}
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "hirata-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	wantTable := func(t string) bool { return !*extras && (*table == "all" || *table == t) }

	if wantTable("2") {
		run("table 2", func() error {
			tb, err := hirata.RunTable2(hirata.Table2Config{Workload: rt})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatTable2(tb))
			return nil
		})
		run("utilization", func() error {
			res, err := hirata.UtilizationReport(rt, 8, 1)
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatUtilization(res, 8, 1))
			return nil
		})
		run("rotation sweep", func() error {
			cells, err := hirata.RunRotationSweep(rt, 4, 1)
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatRotationSweep(cells))
			return nil
		})
		run("private icache", func() error {
			cells, err := hirata.RunPrivateICache(rt)
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatPrivateICache(cells))
			return nil
		})
	}
	if wantTable("3") {
		run("table 3", func() error {
			tb, err := hirata.RunTable3(hirata.Table3Config{Workload: rt})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatTable3(tb))
			return nil
		})
	}
	if wantTable("4") {
		run("table 4", func() error {
			tb, err := hirata.RunTable4(hirata.Table4Config{N: *n})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatTable4(tb))
			return nil
		})
	}
	if wantTable("5") {
		run("table 5", func() error {
			tb, err := hirata.RunTable5(hirata.Table5Config{Nodes: *nodes})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatTable5(tb))
			return nil
		})
	}

	if *extras || *table == "all" {
		run("finite cache", func() error {
			cells, err := hirata.RunFiniteCache(rt, 4, []int{1024, 256, 64, 16})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatFiniteCache(cells, 4))
			return nil
		})
		run("queue depth", func() error {
			cells, err := hirata.RunQueueDepthAblation(*nodes, 4, []int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatQueueDepth(cells, 4))
			return nil
		})
		run("concurrent multithreading", func() error {
			cells, err := hirata.RunConcurrentMT(4, []int{4}, 300)
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatConcurrentMT(cells))
			return nil
		})
		run("doacross", func() error {
			cells, seq, err := hirata.RunDoacross(*n, []int{1, 2, 3, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatDoacross(cells, seq, *n))
			return nil
		})
		run("issue bandwidth", func() error {
			cells, err := hirata.RunIssueBandwidth(rt, []int{2, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatIssueBandwidth(cells))
			return nil
		})
		run("swp ablation", func() error {
			cells, err := hirata.RunSWPAblation(*n, []int{1, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatSWPAblation(cells))
			return nil
		})
		run("standby depth", func() error {
			cells, err := hirata.RunStandbyDepth(rt, 4, []int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatStandbyDepth(cells, 4))
			return nil
		})
		run("unrolling", func() error {
			cells, err := hirata.RunUnrollAblation(384, []int{1, 2, 4, 8}, []int{1, 2, 3})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatUnroll(cells))
			return nil
		})
		run("branch hiding", func() error {
			cells, seq, err := hirata.RunBranchHiding([]int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatBranchHiding(cells, seq))
			return nil
		})
		run("multiprogramming", func() error {
			cells, err := hirata.RunMultiprogram([]int{2, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(hirata.FormatMultiprogram(cells))
			return nil
		})
	}
}

// recordRepresentative runs the parallel ray tracer on the paper's 8-slot
// machine with a collector attached — the same configuration Table 2
// measures — and writes whichever artifacts out selects: the Perfetto
// timeline, folded CPI stacks, the critical-path JSON, bounded what-if
// estimates, and/or a live HTTP server. The collector keeps the default
// event ring for the timeline, critical path and what-if exports, and
// samples 256-cycle intervals for the timeline's counter tracks. The
// caller closes out, which stops the HTTP server.
func recordRepresentative(rt hirata.RayTraceConfig, out *simcli.Outputs) error {
	w, err := hirata.BuildRayTrace(rt)
	if err != nil {
		return err
	}
	cfg := hirata.MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true}
	m, err := w.NewMemory(w.Par, cfg.ThreadSlots)
	if err != nil {
		return err
	}
	col := hirata.NewCollector(cfg, hirata.CollectorOptions{MetricsInterval: 256, RingCapacity: hirata.DefaultRingCapacity})
	opt, err := out.Start(cfg, w.Par, col)
	if err != nil {
		return err
	}
	res, err := hirata.Run(cfg, w.Par.Text, m, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hirata-bench: recorded 8-slot ray trace: %d cycles, ipc %.3f\n", res.Cycles, res.IPC())
	return out.Finish()
}
