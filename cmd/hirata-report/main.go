// Command hirata-report works with content-addressed run ledgers: the
// cross-run observability store hirata-sim -record and hirata-bench
// -ledger append to (docs/OBSERVABILITY.md, "Cross-run observability").
//
// Usage:
//
//	hirata-report record -ledger runs.ledger [flags] [program.s]
//	    simulate and append one fully decorated record (exact CPI stack +
//	    static bounds). Without a program operand the standard ray-trace
//	    workload is run.
//
//	hirata-report ls -ledger runs.ledger
//	    list stored records, oldest first.
//
//	hirata-report show -ledger runs.ledger <run>
//	    print one record's canonical envelope as JSON. <run> is a prefix of
//	    a content hash or run key.
//
//	hirata-report diff -ledger runs.ledger [<runA> <runB>]
//	    attribute the cycle delta between two records exactly across
//	    CPI-stack buckets and per-unit-class utilization. Without operands
//	    the two most recent records are compared.
//
//	hirata-report regress -ledger runs.ledger
//	hirata-report regress -history BENCH_history.jsonl
//	    walk a ledger lineage (tag, else run key) or a benchdiff history
//	    file and flag cycle-count / throughput shifts with attribution.
//	    Exits nonzero when shifts are found, for CI gating.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hirata"
	"hirata/internal/runledger"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "ls":
		err = cmdLs(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "regress":
		err = cmdRegress(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	case "version", "-version":
		fmt.Println("hirata-report", hirata.Version())
		return
	default:
		fmt.Fprintf(os.Stderr, "hirata-report: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hirata-report:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hirata-report <command> [flags]

commands:
  record   simulate and append a decorated run record
  ls       list a ledger's records
  show     print one record as JSON
  diff     exact cycle-delta attribution between two records
  regress  flag shifts along a ledger lineage or bench history

run "hirata-report <command> -h" for command flags.`)
}

// cmdRecord simulates one run and appends its record. Unlike the facade's
// recording hook (which only sees what the run options provide), record
// always runs observed and attaches both optional sections — the exact
// CPI stack and the static-bound certificate — before hashing, so the
// resulting record diffs at full precision.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		ledgerPath = fs.String("ledger", "", "ledger file to append to (required)")
		tag        = fs.String("tag", "", "lineage tag stored in the record")
		slots      = fs.Int("slots", 8, "thread slots")
		ls         = fs.Int("ls", 1, "load/store units")
		standby    = fs.Bool("standby", true, "standby stations")
		width      = fs.Int("width", 1, "superscalar issue width per slot")
		rotation   = fs.Int("rotation", 8, "priority rotation interval in cycles")
		frames     = fs.Int("frames", 0, "context frames (0 = one per slot)")
		threads    = fs.Int("threads", 1, "threads started at pc 0 (program operand only)")
		rays       = fs.Int("rays", 24, "rays in the default ray-trace workload")
		spheres    = fs.Int("spheres", 4, "spheres in the default ray-trace scene")
		headroom   = fs.Int("headroom", 4096, "extra data-memory words (program operand only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ledgerPath == "" {
		return fmt.Errorf("record: -ledger is required")
	}
	if *threads < 0 {
		return fmt.Errorf("record: -threads must not be negative, got %d", *threads)
	}
	if *slots < 0 {
		return fmt.Errorf("record: -slots must not be negative, got %d", *slots)
	}
	cfg := hirata.MTConfig{
		ThreadSlots:      *slots,
		LoadStoreUnits:   *ls,
		StandbyStations:  *standby,
		IssueWidth:       *width,
		RotationInterval: *rotation,
		ContextFrames:    *frames,
	}

	var (
		text []hirata.Instruction
		m    *hirata.Memory
		pcs  []int64
	)
	switch fs.NArg() {
	case 0:
		rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{Rays: *rays, Spheres: *spheres})
		if err != nil {
			return err
		}
		m, err = rt.NewMemory(rt.Par, cfg.Effective().ThreadSlots)
		if err != nil {
			return err
		}
		text = rt.Par.Text
	case 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		var prog *hirata.Program
		if strings.HasSuffix(fs.Arg(0), ".mc") {
			prog, err = hirata.CompileMinC(string(src))
		} else {
			prog, err = hirata.Assemble(string(src))
		}
		if err != nil {
			return err
		}
		m, err = prog.NewMemory(int64(*headroom))
		if err != nil {
			return err
		}
		hirata.SetMinCThreads(prog, m, cfg.Effective().ThreadSlots)
		text = prog.Text
		pcs = make([]int64, *threads)
	default:
		return fmt.Errorf("record: at most one program operand")
	}

	led, err := hirata.OpenRunLedger(*ledgerPath)
	if err != nil {
		return err
	}
	// Digest the inputs before the run mutates the memory image.
	pend := runledger.Begin(cfg, text, m, pcs)
	col := hirata.NewCollector(cfg, hirata.CollectorOptions{})
	res, err := hirata.Run(cfg, text, m, hirata.RunOptions{Observers: []hirata.Observer{col}}, pcs...)
	if err != nil {
		return err
	}
	rec := pend.Finish(res, *tag)
	hirata.AttachExactCPI(rec, col)
	hirata.AttachStaticBounds(rec, cfg, text, pcs...)
	hash, dup, err := led.Append(rec)
	if err != nil {
		return err
	}
	verb := "recorded"
	if dup {
		verb = "already recorded"
	}
	fmt.Printf("%s %s (key %s, tag %s) cycles=%d instructions=%d ipc=%.3f\n",
		verb, runledger.ShortKey(hash), runledger.ShortKey(rec.Key), orNone(*tag),
		res.Cycles, res.Instructions, res.IPC())
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	ledgerPath := fs.String("ledger", "", "ledger file to read (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	led, err := openExisting(*ledgerPath)
	if err != nil {
		return err
	}
	entries := led.Entries()
	if len(entries) == 0 {
		fmt.Println("ledger is empty")
		return nil
	}
	fmt.Printf("%-14s %-14s %-12s %5s %10s %12s %6s %s\n",
		"HASH", "KEY", "TAG", "SLOTS", "CYCLES", "INSTR", "IPC", "SECTIONS")
	for _, e := range entries {
		r := e.Record
		var secs []string
		if r.ExactCPI != nil {
			secs = append(secs, "exact-cpi")
		}
		if r.Bounds != nil {
			secs = append(secs, "bounds")
		}
		if r.HostProfileDigest != "" {
			secs = append(secs, "host")
		}
		fmt.Printf("%-14s %-14s %-12s %5d %10d %12d %6.3f %s\n",
			runledger.ShortKey(e.Hash), runledger.ShortKey(r.Key), orNone(r.Tag),
			len(r.Result.Slots), r.Result.Cycles, r.Result.Instructions, r.IPC(),
			strings.Join(secs, ","))
	}
	st := led.Stats()
	fmt.Printf("%d records, %d distinct run keys, %d canonical bytes\n", st.Records, st.Keys, st.Bytes)
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	ledgerPath := fs.String("ledger", "", "ledger file to read (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show: exactly one run selector required")
	}
	led, err := openExisting(*ledgerPath)
	if err != nil {
		return err
	}
	if _, err := led.Find(fs.Arg(0)); err != nil {
		return err
	}
	out, ok := led.RunJSON(fs.Arg(0))
	if !ok {
		return fmt.Errorf("show: no record matches %q", fs.Arg(0))
	}
	_, err = os.Stdout.Write(out)
	return err
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var (
		ledgerPath = fs.String("ledger", "", "ledger file to read (required)")
		asJSON     = fs.Bool("json", false, "print the diff as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	led, err := openExisting(*ledgerPath)
	if err != nil {
		return err
	}
	var a, b runledger.Entry
	switch fs.NArg() {
	case 0:
		last := led.Last(2)
		if len(last) < 2 {
			return fmt.Errorf("diff: ledger holds %d record(s); need two (or name them)", len(last))
		}
		a, b = last[0], last[1]
	case 2:
		if a, err = led.Find(fs.Arg(0)); err != nil {
			return err
		}
		if b, err = led.Find(fs.Arg(1)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("diff: zero or two run selectors required")
	}
	d, err := runledger.Compute(a.Record, b.Record)
	if err != nil {
		return err
	}
	if *asJSON {
		return d.WriteJSON(os.Stdout)
	}
	fmt.Print(d.Format())
	return nil
}

func cmdRegress(args []string) error {
	fs := flag.NewFlagSet("regress", flag.ExitOnError)
	var (
		ledgerPath  = fs.String("ledger", "", "walk this ledger's lineages (tag, else run key)")
		historyPath = fs.String("history", "", "walk this benchdiff BENCH_history.jsonl instead")
		tolerance   = fs.Float64("tolerance", 0.0, "relative cycle-count change to ignore on ledger lineages (0 = flag any change)")
		window      = fs.Int("window", 5, "trailing-window size for -history")
		minRel      = fs.Float64("min-rel", 0.05, "relative change floor for -history shifts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *ledgerPath != "" && *historyPath != "":
		return fmt.Errorf("regress: -ledger and -history are mutually exclusive")
	case *ledgerPath != "":
		led, err := openExisting(*ledgerPath)
		if err != nil {
			return err
		}
		shifts := runledger.Regress(led.Entries(), *tolerance)
		if len(shifts) == 0 {
			fmt.Println("no shifts: every lineage is cycle-stable")
			return nil
		}
		runledger.WriteShifts(os.Stdout, shifts)
		return fmt.Errorf("%s", runledger.FormatShiftSummary(shifts))
	case *historyPath != "":
		rows, err := runledger.ReadHistory(*historyPath)
		if err != nil {
			return err
		}
		shifts := runledger.RegressHistory(rows, runledger.HistoryOptions{Window: *window, MinRel: *minRel})
		if len(shifts) == 0 {
			fmt.Printf("no shifts across %d history rows\n", len(rows))
			return nil
		}
		runledger.WriteHistoryShifts(os.Stdout, shifts)
		return fmt.Errorf("%d history shift(s) flagged", len(shifts))
	default:
		return fmt.Errorf("regress: one of -ledger or -history is required")
	}
}

// openExisting opens a ledger for inspection, refusing a missing file (an
// empty path or absent ledger is an operator error here, unlike record
// which creates one).
func openExisting(path string) (*hirata.RunLedger, error) {
	if path == "" {
		return nil, fmt.Errorf("-ledger is required")
	}
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	return hirata.OpenRunLedger(path)
}

func orNone(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
