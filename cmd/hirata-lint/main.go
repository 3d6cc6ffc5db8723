// Command hirata-lint statically verifies assembly (.s) and MinC (.mc)
// programs without running them: control-flow graph construction, register
// def-use dataflow, queue-register ring protocol checks, and — with
// -interthread — whole-program abstract interpretation (value ranges,
// happens-before, data-race and address-safety checks). See docs/LINT.md
// for the diagnostic catalogue.
//
// Usage:
//
//	hirata-lint prog.s kernel.mc        # lint individual files
//	hirata-lint examples/programs       # lint every .s/.mc under a directory
//	hirata-lint -interthread prog.s     # add the cross-thread checks L010..L014
//	hirata-lint -deadlock prog.s        # queue-protocol liveness checks L015..L017
//	hirata-lint -bound prog.s           # static lower bound on execution cycles
//	hirata-lint -model prog.s           # analytic model's static performance prediction
//	hirata-lint -json prog.s            # machine-readable findings
//	hirata-lint -sarif prog.s           # SARIF 2.1.0 for code-scanning upload
//	hirata-lint -entries 0,12 prog.s    # explicit thread entry PCs
//
// Exit status: 0 clean, 1 lint findings, 2 usage error, 3 an input failed
// to assemble or compile at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hirata"
	"hirata/internal/core"
	"hirata/internal/lint"
	"hirata/internal/minc"
	"hirata/internal/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hirata-lint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		jsonOut  = flags.Bool("json", false, "emit findings as JSON")
		sarifOut = flags.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		entries  = flags.String("entries", "", "comma-separated thread entry PCs (default 0)")
		qdepth   = flags.Int("queue-depth", 0, "queue register FIFO depth assumed by the deadlock check (default 1)")
		inter    = flags.Bool("interthread", false, "run the cross-thread abstract interpretation (L010..L014)")
		deadlock = flags.Bool("deadlock", false, "run the queue-protocol liveness checks L015..L017 (implies -interthread)")
		bound    = flags.Bool("bound", false, "print the static lower bound on execution cycles per file")
		modelOut = flags.Bool("model", false, "print the analytic model's static-only performance prediction per file (docs/MODEL.md)")
		width    = flags.Int("issue-width", 1, "per-slot superscalar issue width assumed by -bound and -model")
		slots    = flags.Int("slots", 0, "thread slots assumed by -interthread, -deadlock, -bound and -model (default 4; a .lint slots directive in the program overrides)")
		memSize  = flags.Int64("mem-size", 0, "data-memory size in words for the out-of-range check (0 = size unknown)")
		version  = flags.Bool("version", false, "print build information and exit")
	)
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: hirata-lint [-json|-sarif] [-interthread] [-deadlock] [-bound] [-model] [-slots n] [-issue-width n] [-mem-size words] [-entries pcs] [-queue-depth n] file-or-dir...")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "hirata-lint", hirata.Version())
		return 0
	}
	if flags.NArg() == 0 {
		flags.Usage()
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "hirata-lint: -json and -sarif are mutually exclusive")
		return 2
	}
	if (*bound || *modelOut) && (*jsonOut || *sarifOut) {
		fmt.Fprintln(stderr, "hirata-lint: -bound and -model write human-readable reports; they cannot be combined with -json or -sarif")
		return 2
	}

	for _, f := range []struct {
		name   string
		v, max int64
	}{
		{"slots", int64(*slots), 64}, {"issue-width", int64(*width), 16},
		{"queue-depth", int64(*qdepth), math.MaxInt64}, {"mem-size", *memSize, math.MaxInt64},
	} {
		switch {
		case f.v < 0:
			fmt.Fprintf(stderr, "hirata-lint: -%s must not be negative, got %d\n", f.name, f.v)
			return 2
		case f.v > f.max:
			fmt.Fprintf(stderr, "hirata-lint: -%s must be at most %d, the core's maximum, got %d\n", f.name, f.max, f.v)
			return 2
		}
	}

	cfg := lint.Config{
		QueueDepth:  *qdepth,
		InterThread: *inter || *deadlock,
		Deadlock:    *deadlock,
		ThreadSlots: *slots,
		MemWords:    *memSize,
	}
	if *entries != "" {
		for _, f := range strings.Split(*entries, ",") {
			pc, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || pc < 0 {
				fmt.Fprintf(stderr, "hirata-lint: bad -entries value %q\n", f)
				return 2
			}
			cfg.Entries = append(cfg.Entries, pc)
		}
	}

	files, err := collectFiles(flags.Args())
	if err != nil {
		fmt.Fprintln(stderr, "hirata-lint:", err)
		return 2
	}
	if len(files) == 0 {
		fmt.Fprintln(stderr, "hirata-lint: no .s or .mc files found")
		return 2
	}

	var all []lint.FileFinding
	report := func(file string, d lint.Diagnostic) {
		all = append(all, lint.FileFinding{File: file, Diag: d})
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(stdout, "%s: %s\n", file, d)
		}
	}

	badInput := false
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(stderr, "hirata-lint:", err)
			return 2
		}
		var prog *hirata.Program
		switch filepath.Ext(file) {
		case ".mc":
			prog, err = minc.Compile(string(src))
		default:
			prog, err = hirata.Assemble(string(src))
		}
		if err != nil {
			// Unparseable input is a different failure class from a lint
			// finding: the program could not be built at all, so none of
			// the checks ran. Report on stderr and keep going with the
			// other files; the exit status distinguishes the two.
			fmt.Fprintf(stderr, "hirata-lint: %s: does not build: %v\n", file, err)
			badInput = true
			continue
		}
		for _, pc := range cfg.Entries {
			if pc >= len(prog.Text) {
				fmt.Fprintf(stderr, "hirata-lint: %s: -entries pc %d is past the program's %d instructions\n", file, pc, len(prog.Text))
				return 2
			}
		}
		for _, d := range lint.AnalyzeProgram(prog, cfg) {
			report(file, d)
		}
		if *bound || *modelOut {
			machineSlots := cfg.ThreadSlots
			if machineSlots == 0 && prog.LintSlots > 0 {
				machineSlots = prog.LintSlots
			}
			if machineSlots == 0 {
				machineSlots = 4
			}
			if *bound {
				m := lint.Machine{ThreadSlots: machineSlots, IssueWidth: *width}
				b := lint.ComputeBounds(prog.Text, cfg.Entries, m)
				fmt.Fprintf(stdout, "%s: %s", file, b.Format())
			}
			if *modelOut {
				w := model.NewWorkload(file, prog.Text, cfg.Entries)
				p := w.Predict(core.Config{ThreadSlots: machineSlots, IssueWidth: *width})
				fmt.Fprintf(stdout, "%s: %s", file, p.Format())
			}
		}
	}

	switch {
	case *jsonOut:
		if all == nil {
			all = []lint.FileFinding{}
		}
		out, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "hirata-lint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	case *sarifOut:
		// One run covering every scanned file: clean files still appear
		// as run-level artifacts so code scanning knows they were covered.
		out, err := lint.MarshalSARIFFiles(files, all)
		if err != nil {
			fmt.Fprintln(stderr, "hirata-lint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	}

	switch {
	case badInput:
		return 3
	case len(all) > 0:
		return 1
	}
	return 0
}

// collectFiles expands the argument list: files are taken as-is, and
// directories are walked for .s and .mc sources.
func collectFiles(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && (strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".mc")) {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}
