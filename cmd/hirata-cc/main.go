// Command hirata-cc compiles MinC — a small C-like kernel language — to
// the machine's assembly. The paper's workloads were produced by a
// commercial C compiler; MinC is this repository's equivalent substrate
// (see docs/MINC.md). hirata-sim runs .mc files directly.
//
// Usage:
//
//	hirata-cc kernel.mc               # print generated assembly
//	hirata-cc -lint kernel.mc         # verify the generated assembly first
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
		doLint  = flag.Bool("lint", false, "run the static verifier over the generated code")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("hirata-cc", hirata.Version())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hirata-cc [-lint] kernel.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	check(err)
	text, err := minc.CompileToAsm(string(src))
	check(err)
	if *doLint {
		lintGenerated(text)
	}
	fmt.Print(text)
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
