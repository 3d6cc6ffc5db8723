// Package simcli is the command-line surface shared by every command that
// runs a simulation: the machine-shape flags, the program and trace
// loaders, and the observer and recording flags together with the
// artifacts they write. One flag set means one set of defaults, so the
// same flags describe the same machine, and give the same run key, on
// every command.
package simcli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hirata"
	"hirata/internal/trace"
)

// Machine holds the machine-shape flags. Register it on a flag set, parse,
// then read the machine with Config.
type Machine struct {
	slots, ls, width, rotation, frames int
	standby, explicit                  bool
}

// Register adds -slots -ls -standby -width -rotation -explicit -frames to
// fs.
func (m *Machine) Register(fs *flag.FlagSet) {
	fs.IntVar(&m.slots, "slots", 1, "thread slots (0 = the core's default of one)")
	fs.IntVar(&m.ls, "ls", 1, "load/store units")
	fs.BoolVar(&m.standby, "standby", true, "standby stations")
	fs.IntVar(&m.width, "width", 1, "superscalar issue width per slot")
	fs.IntVar(&m.rotation, "rotation", 8, "priority rotation interval in cycles")
	fs.BoolVar(&m.explicit, "explicit", false, "start in explicit-rotation mode")
	fs.IntVar(&m.frames, "frames", 0, "context frames (0 = one per slot)")
}

// Config returns the machine the parsed flags describe, or an error naming
// the first flag with a negative value.
func (m *Machine) Config() (hirata.MTConfig, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"slots", m.slots}, {"ls", m.ls}, {"width", m.width}, {"rotation", m.rotation}, {"frames", m.frames}} {
		if err := NonNegative(f.name, f.v); err != nil {
			return hirata.MTConfig{}, err
		}
	}
	return hirata.MTConfig{
		ThreadSlots:      m.slots,
		LoadStoreUnits:   m.ls,
		StandbyStations:  m.standby,
		IssueWidth:       m.width,
		RotationInterval: m.rotation,
		ExplicitRotation: m.explicit,
		ContextFrames:    m.frames,
	}, nil
}

// NonNegative returns an error naming flag -name when v is negative.
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must not be negative, got %d", name, v)
	}
	return nil
}

// Load reads a program, compiling a .mc file as MinC and assembling
// anything else, and builds its memory image with headroom words beyond
// the data.
func Load(path string, headroom int64) (*hirata.Program, *hirata.Memory, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var prog *hirata.Program
	if strings.HasSuffix(path, ".mc") {
		prog, err = hirata.CompileMinC(string(src))
	} else {
		prog, err = hirata.Assemble(string(src))
	}
	if err != nil {
		return nil, nil, err
	}
	m, err := prog.NewMemory(headroom)
	if err != nil {
		return nil, nil, err
	}
	return prog, m, nil
}

// ReadTrace reads a trace file written by hirata-trace -record.
func ReadTrace(path string) ([]hirata.TraceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// Outputs holds the observer and recording flags of one run. Register adds
// them to a flag set; a command that exposes only some of them sets the
// fields directly. Check validates them, Start attaches what they need
// before the run, Finish writes the artifacts after it, and Close releases
// the server and the ledger.
type Outputs struct {
	// Cmd prefixes the notes written to Stderr. Reports go to Stdout.
	Cmd            string
	Stdout, Stderr io.Writer

	ChromeTrace     string
	Profile         bool
	MetricsInterval int
	HTTP            string
	CPIStack        bool
	CPIFolded       string
	CritPath        bool
	CritPathJSON    string
	WhatIf          string
	Pipeline        bool
	Record          string
	RunTag          string

	prog *hirata.Program
	col  *hirata.Collector
	led  *hirata.RunLedger
	stop func() error
}

// Register adds the 12 observer and recording flags to fs.
func (o *Outputs) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.ChromeTrace, "chrome-trace", "", "write a Chrome Trace Event JSON timeline to this file (load in ui.perfetto.dev)")
	fs.BoolVar(&o.Profile, "profile", false, "print a per-PC hotspot report after the run")
	fs.IntVar(&o.MetricsInterval, "metrics-interval", 0, "sample interval metrics every N cycles and print the time series")
	fs.StringVar(&o.HTTP, "http", "", "serve live /metrics, /metrics.json, /trace.json, /profile and pprof on this address during the run")
	fs.BoolVar(&o.CPIStack, "cpi-stack", false, "print the per-slot CPI-stack cycle-accounting table")
	fs.StringVar(&o.CPIFolded, "cpi-folded", "", "write the CPI stack in collapsed/folded format to this file (feed to flamegraph.pl)")
	fs.BoolVar(&o.CritPath, "critpath", false, "print the dynamic critical path with breakdown")
	fs.StringVar(&o.CritPathJSON, "critpath-json", "", "write the critical-path analysis as JSON to this file")
	fs.StringVar(&o.WhatIf, "whatif", "", "comma-separated what-if scenarios to estimate, e.g. \"+1 alu,+1 ls,+1 slot\"")
	fs.BoolVar(&o.Pipeline, "pipeline", false, "print a cycle-by-cycle pipeline event trace")
	fs.StringVar(&o.Record, "record", "", "append the completed run to this content-addressed ledger file (inspect with hirata-report)")
	fs.StringVar(&o.RunTag, "run-tag", "", "lineage tag stored in the run record (with -record)")
}

// IsOutputFlag reports whether name is one of the flags Outputs.Register
// adds.
func IsOutputFlag(name string) bool {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	new(Outputs).Register(fs)
	return fs.Lookup(name) != nil
}

// Check rejects a negative -metrics-interval and parses -whatif, so that a
// bad value fails before anything is simulated or recorded. Start calls
// it; a command may call it earlier, before it loads its input.
func (o *Outputs) Check() error {
	if err := NonNegative("metrics-interval", o.MetricsInterval); err != nil {
		return err
	}
	if _, err := hirata.ParseWhatIfScenarios(o.WhatIf); err != nil {
		return fmt.Errorf("-whatif: %w", err)
	}
	return nil
}

// Start prepares the run of a machine of shape cfg and returns the options
// to run it with. prog is the program being run, or nil for a trace
// replay. col is the Collector to attach; when it is nil, Start creates one
// only if an output reads the event stream, with an event ring only if an
// output replays it. Start checks the flags, then opens and attaches the
// -record ledger and binds -http before the run, so the endpoints live for
// its whole duration.
func (o *Outputs) Start(cfg hirata.MTConfig, prog *hirata.Program, col *hirata.Collector) (hirata.RunOptions, error) {
	if err := o.Check(); err != nil {
		return hirata.RunOptions{}, err
	}
	replay := o.ChromeTrace != "" || o.CritPath || o.CritPathJSON != "" || o.WhatIf != "" || o.HTTP != ""
	if col == nil && (replay || o.Profile || o.MetricsInterval > 0 || o.CPIStack || o.CPIFolded != "") {
		copt := hirata.CollectorOptions{MetricsInterval: o.MetricsInterval}
		if replay {
			copt.RingCapacity = hirata.DefaultRingCapacity
		}
		col = hirata.NewCollector(cfg, copt)
	}
	o.prog, o.col = prog, col
	var opt hirata.RunOptions
	if col != nil {
		opt.Observers = append(opt.Observers, col)
	}
	if o.Pipeline {
		opt.Observers = append(opt.Observers, &hirata.TextTracer{W: o.Stdout})
	}
	var runs hirata.RunsSource
	if o.Record != "" {
		led, err := hirata.OpenRunLedger(o.Record)
		if err != nil {
			return opt, err
		}
		o.led, runs = led, led
		hirata.SetRunLedger(led, o.RunTag)
	}
	if o.HTTP != "" {
		bound, stop, err := hirata.ServeObservability(o.HTTP, col, prog, runs)
		if err != nil {
			return opt, err
		}
		o.stop = stop
		o.note("serving observability at http://%s", bound)
	}
	return opt, nil
}

// Finish writes every requested artifact of the finished run: the ledger
// note, the timeline, the interval table, the profile, the CPI stack, the
// critical path and the what-if estimates, in that order. It then detaches
// the ledger, so a later run in the same process is not recorded into it.
func (o *Outputs) Finish() error {
	defer o.detach()
	if o.led != nil {
		if err := hirata.RunLedgerError(); err != nil {
			return err
		}
		if es := o.led.Last(1); len(es) == 1 {
			o.note("recorded run %s (key %s) to %s", es[0].Hash[:12], es[0].Record.Key[:12], o.Record)
		}
	}
	if o.ChromeTrace != "" {
		if err := WriteFile(o.ChromeTrace, o.col.WriteChromeTrace); err != nil {
			return err
		}
		o.note("wrote %s (load in ui.perfetto.dev)", o.ChromeTrace)
	}
	if o.MetricsInterval > 0 {
		fmt.Fprintln(o.Stdout)
		if err := o.col.WriteIntervalTable(o.Stdout); err != nil {
			return err
		}
	}
	if o.Profile {
		fmt.Fprintln(o.Stdout)
		if err := o.col.Profile().WriteAnnotated(o.Stdout, o.prog); err != nil {
			return err
		}
	}
	if o.CPIStack {
		fmt.Fprintln(o.Stdout)
		if err := o.col.CPIStack().WriteCPITable(o.Stdout); err != nil {
			return err
		}
	}
	if o.CPIFolded != "" {
		if err := WriteFile(o.CPIFolded, o.col.CPIStack().WriteCPIFolded); err != nil {
			return err
		}
		o.note("wrote %s (feed to flamegraph.pl or speedscope)", o.CPIFolded)
	}
	if o.CritPath || o.CritPathJSON != "" {
		cp, err := o.col.CritPath()
		if err != nil {
			return err
		}
		if o.CritPath {
			fmt.Fprintln(o.Stdout)
			if err := cp.WriteText(o.Stdout, o.prog); err != nil {
				return err
			}
		}
		if o.CritPathJSON != "" {
			cp.Annotate(o.prog)
			if err := WriteFile(o.CritPathJSON, cp.WriteJSON); err != nil {
				return err
			}
			o.note("wrote %s", o.CritPathJSON)
		}
	}
	if o.WhatIf != "" {
		ests, err := o.col.WhatIfAll(o.WhatIf)
		if err != nil {
			return err
		}
		fmt.Fprintln(o.Stdout)
		fmt.Fprint(o.Stdout, hirata.FormatWhatIfEstimates(ests))
	}
	return nil
}

// Close stops the -http server, if one is running, and detaches the
// ledger if Finish has not. Call it once the run is over, also when it
// failed.
func (o *Outputs) Close() error {
	o.detach()
	if o.stop == nil {
		return nil
	}
	return o.stop()
}

// detach removes the ledger Start attached. A ledger the command attached
// itself stays.
func (o *Outputs) detach() {
	if o.led != nil {
		hirata.SetRunLedger(nil, "")
		o.led = nil
	}
}

func (o *Outputs) note(format string, args ...any) {
	fmt.Fprintf(o.Stderr, "%s: %s\n", o.Cmd, fmt.Sprintf(format, args...))
}

// WriteFile creates path and writes it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
