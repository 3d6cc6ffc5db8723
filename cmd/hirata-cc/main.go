// Command hirata-cc compiles MinC — a small C-like kernel language — to
// the machine's assembly, and optionally runs the result. The paper's
// workloads were produced by a commercial C compiler; MinC is this
// repository's equivalent substrate (see docs/MINC.md).
//
// Usage:
//
//	hirata-cc kernel.mc               # print generated assembly
//	hirata-cc -run kernel.mc          # compile and run (multithreaded)
//	hirata-cc -run -slots 8 -ls 2 kernel.mc
//	hirata-cc -run -dump name kernel.mc   # print a global after the run
package main

import (
	"flag"
	"fmt"
	"os"

	"hirata"
	"hirata/internal/minc"
)

func main() {
	var (
		run     = flag.Bool("run", false, "run the compiled program on the multithreaded machine")
		slots   = flag.Int("slots", 4, "thread slots for -run")
		ls      = flag.Int("ls", 2, "load/store units for -run")
		dump    = flag.String("dump", "", "comma-free global name to print after -run")
		dumpN   = flag.Int("dump-n", 1, "number of words to print from -dump")
		verbose = flag.Bool("v", false, "print full statistics after -run")
		doLint  = flag.Bool("lint", false, "run the static verifier over the generated code")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("hirata-cc", hirata.Version())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hirata-cc [-run] [-lint] kernel.mc")
		os.Exit(2)
	}
	if *slots < 0 {
		check(fmt.Errorf("-slots must not be negative, got %d", *slots))
	}
	src, err := os.ReadFile(flag.Arg(0))
	check(err)

	if !*run {
		text, err := minc.CompileToAsm(string(src))
		check(err)
		if *doLint {
			lintGenerated(text)
		}
		fmt.Print(text)
		return
	}

	prog, err := minc.Compile(string(src))
	check(err)
	if *doLint {
		if ds := hirata.Lint(prog); len(ds) != 0 {
			for _, d := range ds {
				fmt.Fprintln(os.Stderr, "hirata-cc: lint:", d)
			}
			os.Exit(1)
		}
	}
	m, err := prog.NewMemory(4096)
	check(err)
	cfg := hirata.MTConfig{
		ThreadSlots:     *slots,
		LoadStoreUnits:  *ls,
		StandbyStations: true,
	}
	minc.SetThreads(prog, m, cfg.Effective().ThreadSlots)
	res, err := hirata.RunMT(cfg, prog.Text, m)
	check(err)
	if *verbose {
		fmt.Print(res.String())
	} else {
		fmt.Printf("cycles=%d instructions=%d ipc=%.3f\n", res.Cycles, res.Instructions, res.IPC())
	}
	if *dump != "" {
		addr, ok := prog.Symbol(*dump)
		if !ok {
			check(fmt.Errorf("unknown global %q", *dump))
		}
		for i := 0; i < *dumpN; i++ {
			v, err := m.Load(addr + int64(i))
			check(err)
			fmt.Printf("%s[%d] = %d (float %g)\n", *dump, i, int64(v), m.FloatAt(addr+int64(i)))
		}
	}
}

// lintGenerated verifies compiler output that is only being printed: the
// diagnostics go to stderr (with positions into the generated assembly)
// and a finding makes the compile fail.
func lintGenerated(text string) {
	prog, err := hirata.Assemble(text)
	check(err)
	if ds := hirata.Lint(prog); len(ds) != 0 {
		for _, d := range ds {
			fmt.Fprintln(os.Stderr, "hirata-cc: lint:", d)
		}
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hirata-cc:", err)
		os.Exit(1)
	}
}
