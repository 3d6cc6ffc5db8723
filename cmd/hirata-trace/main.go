// Command hirata-trace records and summarises dynamic instruction traces —
// the simulation methodology of the paper's §3, which drives the timing
// simulator with traced instruction sequences.
//
// Usage:
//
//	hirata-trace -record prog.s -o prog.trace     # run + record
//	hirata-trace -record prog.s                   # run + print the dynamic mix
//	hirata-trace -stats prog.trace                # dynamic mix of a trace
//
// hirata-sim replays a trace: N copies on S thread slots measure
// multiprogrammed throughput exactly the way the paper measures its ray
// tracer (hirata-sim -slots 4 -ls 2 -copies 4 prog.trace).
package main

import (
	"flag"
	"fmt"
	"os"

	"hirata"
	"hirata/cmd/internal/simcli"
	"hirata/internal/trace"
)

func main() {
	var (
		record  = flag.String("record", "", "program (.s, or .mc for MinC) to run on the functional model and record")
		out     = flag.String("o", "", "output trace file for -record")
		stats   = flag.String("stats", "", "trace file to summarise")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("hirata-trace", hirata.Version())
		return
	}

	switch {
	case *record != "":
		prog, m, err := simcli.Load(*record, 4096)
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
		recs, err := simcli.ReadTrace(*stats)
		check(err)
		fmt.Print(trace.Stats(recs).String())

	default:
		fmt.Fprintln(os.Stderr, "usage: hirata-trace -record prog.s [-o f] | -stats f")
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hirata-trace:", err)
		os.Exit(1)
	}
}
