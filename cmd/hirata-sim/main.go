// Command hirata-sim runs one simulation: a program on one of the three
// machine models — the multithreaded processor (mt), the baseline
// superpipelined RISC (risc), or the untimed functional interpreter
// (interp) — or a recorded trace replayed on the multithreaded processor,
// the trace-driven method of the paper's §3.
//
// Usage:
//
//	hirata-sim [flags] program.s|program.mc|prog.trace
//
//	hirata-sim -machine mt -slots 4 -ls 2 -standby prog.s
//	hirata-sim -machine risc prog.s
//	hirata-sim -machine interp -dump-mem 100:110 prog.s
//	hirata-sim -slots 8 -dump-mem iters:iters+16 kernel.mc
//	hirata-sim -slots 4 -ls 2 -copies 4 prog.trace
//
// A trace is replayed as -copies copies, one per slot by default; the
// replay prints a banner line and the full statistics.
//
// On the multithreaded machine, -chrome-trace, -profile, -metrics-interval,
// -http, -cpi-stack, -cpi-folded, -critpath, -critpath-json and -whatif
// observe the run, -record appends the run to a ledger for hirata-report,
// and -static-check verifies the program first (docs/OBSERVABILITY.md,
// docs/LINT.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"hirata"
	"hirata/cmd/internal/simcli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// command holds hirata-sim's parsed flags and the machine they describe.
type command struct {
	mach      simcli.Machine
	cfg       hirata.MTConfig
	out       simcli.Outputs
	machine   string
	threads   int
	copies    int
	headroom  int
	dumpMem   string
	statCheck bool
	verbose   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hirata-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := command{out: simcli.Outputs{Cmd: "hirata-sim", Stdout: stdout, Stderr: stderr}}
	c.mach.Register(fs)
	c.out.Register(fs)
	fs.StringVar(&c.machine, "machine", "mt", "machine model: mt, risc, or interp")
	fs.IntVar(&c.threads, "threads", 1, "threads started at pc 0 (mt)")
	fs.IntVar(&c.copies, "copies", 0, "trace copies to replay (default: one per slot)")
	fs.IntVar(&c.headroom, "headroom", 4096, "extra data-memory words beyond the data image")
	fs.StringVar(&c.dumpMem, "dump-mem", "", "memory range to print after the run, LO:HI with each end a word address or symbol[+n], e.g. 100:110 or iters:iters+16")
	fs.BoolVar(&c.statCheck, "static-check", false, "verify before running: refuse on statically provable deadlocks (L015..L017), warn on other findings, and print the static cycle bound next to the measured result (mt)")
	fs.BoolVar(&c.verbose, "v", false, "print full statistics")
	version := fs.Bool("version", false, "print build information and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hirata-sim [flags] program.s|program.mc|prog.trace")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "hirata-sim", hirata.Version())
		return 0
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	defer c.out.Close()
	err := c.check(fs)
	switch {
	case err != nil:
	case strings.HasSuffix(fs.Arg(0), ".trace"):
		err = c.replay(fs.Arg(0))
	default:
		err = c.simulate(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "hirata-sim:", err)
		return 1
	}
	if c.out.HTTP != "" {
		fmt.Fprintln(stderr, "hirata-sim: run finished; endpoints stay up — interrupt (ctrl-C) to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return 0
}

// check rejects, before anything is loaded or opened, a negative count, a
// flag that does not apply to the input or the machine, and a bad
// -whatif.
func (c *command) check(fs *flag.FlagSet) (err error) {
	if c.cfg, err = c.mach.Config(); err != nil {
		return err
	}
	if err := simcli.NonNegative("threads", c.threads); err != nil {
		return err
	}
	if err := simcli.NonNegative("copies", c.copies); err != nil {
		return err
	}
	trace := strings.HasSuffix(fs.Arg(0), ".trace")
	switch {
	case c.machine != "mt" && c.machine != "risc" && c.machine != "interp":
		return fmt.Errorf("unknown machine %q", c.machine)
	case trace && c.machine != "mt":
		return fmt.Errorf("-machine %s cannot replay a trace; traces replay on mt", c.machine)
	}
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case trace && (f.Name == "static-check" || f.Name == "dump-mem" || f.Name == "threads" || f.Name == "headroom"):
			err = fmt.Errorf("-%s does not apply to a trace", f.Name)
		case !trace && f.Name == "copies":
			err = fmt.Errorf("-copies applies only to a .trace input")
		case c.machine != "mt" && (f.Name == "static-check" || simcli.IsOutputFlag(f.Name)):
			err = fmt.Errorf("-%s needs -machine mt, not %s", f.Name, c.machine)
		}
	})
	if err != nil {
		return err
	}
	return c.out.Check()
}

// simulate runs a program and prints the result, every requested artifact
// and the -dump-mem range.
func (c *command) simulate(path string) error {
	prog, m, err := simcli.Load(path, int64(c.headroom))
	if err != nil {
		return err
	}
	lo, hi, err := dumpRange(c.dumpMem, prog, m)
	if err != nil {
		return err
	}
	stdout := c.out.Stdout
	switch c.machine {
	case "mt":
		pcs := make([]int64, c.threads)
		hirata.SetMinCThreads(prog, m, c.cfg.Effective().ThreadSlots)
		if c.statCheck {
			if err := c.staticCheck(prog, m); err != nil {
				return err
			}
		}
		opt, err := c.out.Start(c.cfg, prog, nil)
		if err != nil {
			return err
		}
		res, err := hirata.Run(c.cfg, prog.Text, m, opt, pcs...)
		if err != nil {
			return err
		}
		if c.verbose {
			fmt.Fprint(stdout, res.String())
		} else {
			fmt.Fprintf(stdout, "cycles=%d instructions=%d ipc=%.3f\n", res.Cycles, res.Instructions, res.IPC())
		}
		if c.statCheck {
			c.printStaticBound(prog, res.Cycles, pcs)
		}
		if err := c.out.Finish(); err != nil {
			return err
		}
	case "risc":
		res, err := hirata.RunRISC(hirata.RISCConfig{LoadStoreUnits: c.cfg.LoadStoreUnits}, prog.Text, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cycles=%d instructions=%d cpi=%.3f branches=%d\n",
			res.Cycles, res.Instructions, res.CPI(), res.Branches)
	case "interp":
		steps, err := hirata.Interpret(prog.Text, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "instructions=%d\n", steps)
	}
	for a := lo; a < hi; a++ {
		v, err := m.Load(a)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mem[%d] = %#016x (int %d, float %g)\n", a, v, int64(v), m.FloatAt(a))
	}
	return nil
}

// replay runs -copies copies of the trace at path, one per slot by
// default, and prints the result and every requested artifact.
func (c *command) replay(path string) error {
	recs, err := simcli.ReadTrace(path)
	if err != nil {
		return err
	}
	slots := c.cfg.Effective().ThreadSlots
	n := c.copies
	if n == 0 {
		n = slots
	}
	traces := make([][]hirata.TraceRecord, n)
	for i := range traces {
		traces[i] = recs
	}
	opt, err := c.out.Start(c.cfg, nil, nil)
	if err != nil {
		return err
	}
	res, err := hirata.ReplayTraces(c.cfg, traces, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out.Stdout, "replayed %d x %d instructions on %d slots\n%s", n, len(recs), slots, res.String())
	return c.out.Finish()
}

// staticCheck runs the verifier with the queue-protocol liveness checks
// enabled before simulating. A provable deadlock (L015..L017) refuses the
// run — simulating it would only spin to MaxCycles — while every other
// finding is reported as a warning and the run proceeds.
func (c *command) staticCheck(prog *hirata.Program, m *hirata.Memory) error {
	lc := hirata.LintConfig{
		QueueDepth:  c.cfg.QueueDepth,
		ThreadSlots: c.cfg.ThreadSlots,
		InterThread: true,
		Deadlock:    true,
		MemWords:    m.Size(),
	}
	if c.threads > 0 {
		lc.Entries = []int{0} // every thread starts at pc 0
	}
	fatal := 0
	for _, d := range hirata.LintWithConfig(prog, lc) {
		switch d.Code {
		case "L015", "L016", "L017":
			fatal++
			fmt.Fprintf(c.out.Stderr, "hirata-sim: static-check: %s\n", d)
		default:
			fmt.Fprintf(c.out.Stderr, "hirata-sim: static-check warning: %s\n", d)
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
func (c *command) printStaticBound(prog *hirata.Program, measured uint64, pcs []int64) {
	b := hirata.StaticBounds(c.cfg, prog.Text, pcs...)
	if b.Unbounded {
		fmt.Fprintln(c.out.Stdout, "static-bound=unbounded (some thread never reaches halt)")
		return
	}
	gap := 0.0
	if b.Bound > 0 {
		gap = (float64(measured) - float64(b.Bound)) / float64(b.Bound) * 100
	}
	fmt.Fprintf(c.out.Stdout, "static-bound=%d measured=%d headroom=%.1f%%\n", b.Bound, measured, gap)
}

// dumpRange resolves a -dump-mem LO:HI range, each end a word address or
// symbol[+n], and checks that it lies in memory. An empty spec is the
// empty range.
func dumpRange(spec string, prog *hirata.Program, m *hirata.Memory) (lo, hi int64, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	ends := strings.Split(spec, ":")
	if len(ends) != 2 {
		return 0, 0, fmt.Errorf("bad -dump-mem %q, want LO:HI", spec)
	}
	var at [2]int64
	for i, end := range ends {
		base, off, hasOff := strings.Cut(end, "+")
		v, err := strconv.ParseInt(base, 0, 64)
		if sym, ok := prog.Symbol(base); err != nil && ok {
			v, err = sym, nil
		}
		var n int64
		if err == nil && hasOff {
			n, err = strconv.ParseInt(off, 0, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("bad -dump-mem %q: %q is not a number or symbol[+n]", spec, end)
		}
		at[i] = v + n
	}
	if at[0] < 0 || at[1] < at[0] || at[1] > m.Size() {
		return 0, 0, fmt.Errorf("-dump-mem %q is not a range in the %d-word memory", spec, m.Size())
	}
	return at[0], at[1], nil
}
