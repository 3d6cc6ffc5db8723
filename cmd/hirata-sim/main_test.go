package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hirata"
	"hirata/cmd/internal/simcli"
	"hirata/internal/trace"
)

const (
	fibS     = "../../examples/programs/fib.s"
	mandelMC = "../../examples/programs/mandel.mc"
)

// sim runs hirata-sim in process with args.
func sim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// wantOneErrorLine requires a failing exit with exactly one stderr line
// that contains want.
func wantOneErrorLine(t *testing.T, stderr string, code int, want string) {
	t.Helper()
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], want) {
		t.Errorf("stderr = %q, want one line containing %q", stderr, want)
	}
}

// fibTrace records the fib example's 126-instruction trace into a
// temporary file.
func fibTrace(t *testing.T) string {
	t.Helper()
	prog, m, err := simcli.Load(fibS, 4096)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.RecordProgram(prog.Text, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fib.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// ledgerKeys returns the run keys recorded in the ledger at path.
func ledgerKeys(t *testing.T, path string) []string {
	t.Helper()
	led, err := hirata.OpenRunLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range led.Entries() {
		keys = append(keys, e.Record.Key)
	}
	return keys
}

func TestNegativeThreadsFlag(t *testing.T) {
	_, stderr, code := sim(t, "-threads", "-1", fibS)
	wantOneErrorLine(t, stderr, code, "-threads")
}

// TestNegativeFlags: -1 for any machine flag, -threads, -copies or
// -metrics-interval is one error line naming the flag, on a program and on
// a trace.
func TestNegativeFlags(t *testing.T) {
	tr := fibTrace(t)
	for _, flag := range []string{"slots", "ls", "width", "rotation", "frames", "threads", "copies", "metrics-interval"} {
		for _, input := range []string{mandelMC, tr} {
			t.Run(flag+"/"+filepath.Base(input), func(t *testing.T) {
				stdout, stderr, code := sim(t, "-"+flag, "-1", input)
				wantOneErrorLine(t, stderr, code, "-"+flag)
				if stdout != "" {
					t.Errorf("refused run printed %q", stdout)
				}
			})
		}
	}
}

// TestObservedProfiledRun drives the run with a Collector attached: the
// CPI stack covers exactly the printed cycles.
func TestObservedProfiledRun(t *testing.T) {
	stdout, stderr, code := sim(t, "-slots", "2", "-threads", "2", "-cpi-stack", fibS)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var cycles, instrs uint64
	var ipc float64
	if _, err := fmt.Sscanf(stdout, "cycles=%d instructions=%d ipc=%f", &cycles, &instrs, &ipc); err != nil {
		t.Fatalf("no result line: %v\n%s", err, stdout)
	}
	if want := fmt.Sprintf("cycle accounting over %d cycles", cycles); !strings.Contains(stdout, want) {
		t.Errorf("CPI stack does not cover the run (want %q):\n%s", want, stdout)
	}
}

// TestReplayCPIStack replays a recorded trace with the CPI stack: the
// replay runs one copy per slot, and the stack accounts for exactly the
// replay's cycles.
func TestReplayCPIStack(t *testing.T) {
	stdout, stderr, code := sim(t, "-slots", "4", "-ls", "2", "-cpi-stack", fibTrace(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.HasPrefix(stdout, "replayed 4 x 126 instructions on 4 slots\n") {
		t.Errorf("replay banner missing:\n%s", stdout)
	}
	m := regexp.MustCompile(`cycles=(\d+) instructions=504 `).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no result line with 504 instructions:\n%s", stdout)
	}
	if want := fmt.Sprintf("cycle accounting over %s cycles", m[1]); !strings.Contains(stdout, want) {
		t.Errorf("CPI stack does not cover the run (want %q):\n%s", want, stdout)
	}
}

// TestZeroSlotsRunsOneSlot: -slots 0 means the core's default of one slot.
// A MinC program must be told the thread count the machine actually runs,
// and a trace replays one copy, so the run matches -slots 1 exactly.
func TestZeroSlotsRunsOneSlot(t *testing.T) {
	for _, tc := range []struct{ input, prefix string }{
		{mandelMC, "cycles="},
		{fibTrace(t), "replayed 1 x 126 instructions on 1 slots\n"},
	} {
		t.Run(filepath.Base(tc.input), func(t *testing.T) {
			one, stderr, code := sim(t, "-slots", "1", tc.input)
			if code != 0 || !strings.HasPrefix(one, tc.prefix) {
				t.Fatalf("-slots 1: exit %d, stdout %q, stderr %q", code, one, stderr)
			}
			zero, stderr, code := sim(t, "-slots", "0", tc.input)
			if code != 0 || zero != one {
				t.Errorf("-slots 0: exit %d, stdout %q, stderr %q; want the -slots 1 output %q", code, zero, stderr, one)
			}
		})
	}
}

// TestBadSizesAreErrors: a negative slot count, an oversized headroom and
// an oversized data image each give one error line, never a panic.
func TestBadSizesAreErrors(t *testing.T) {
	_, stderr, code := sim(t, "-slots", "-1", mandelMC)
	wantOneErrorLine(t, stderr, code, "-slots")
	_, stderr, code = sim(t, "-headroom", "9000000000000000", fibS)
	wantOneErrorLine(t, stderr, code, "headroom")
	big := filepath.Join(t.TempDir(), "big.s")
	if err := os.WriteFile(big, []byte("\t.data\n\t.space 9000000000000000\n\t.text\n\thalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = sim(t, big)
	wantOneErrorLine(t, stderr, code, "line 2")
}

// TestDumpMemSymbols: -dump-mem resolves symbol[+n] at either end to the
// same words as the numeric range, and a bad range is refused before the
// run.
func TestDumpMemSymbols(t *testing.T) {
	byName, stderr, code := sim(t, "-slots", "4", "-dump-mem", "iters:iters+4", mandelMC)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	byAddr, _, _ := sim(t, "-slots", "4", "-dump-mem", "10:14", mandelMC)
	if byName != byAddr || strings.Count(byName, "\nmem[") != 4 {
		t.Errorf("-dump-mem iters:iters+4 printed\n%s\nwant the -dump-mem 10:14 output\n%s", byName, byAddr)
	}
	for _, spec := range []string{"nosuch:4", "iters:iters+x", "10", "14:10", "0:99999999"} {
		stdout, stderr, code := sim(t, "-dump-mem", spec, mandelMC)
		wantOneErrorLine(t, stderr, code, "-dump-mem")
		if stdout != "" {
			t.Errorf("-dump-mem %s: refused run printed %q", spec, stdout)
		}
	}
}

// TestNonMTRefusesOutputs: observer and ledger flags need the
// multithreaded machine; on risc or interp they are one error line, and a
// refused run creates no ledger.
func TestNonMTRefusesOutputs(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "x.ledger")
	_, stderr, code := sim(t, "-machine", "risc", "-record", ledger, fibS)
	wantOneErrorLine(t, stderr, code, "-record")
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Errorf("refused run touched the ledger file (stat: %v)", err)
	}
	_, stderr, code = sim(t, "-machine", "interp", "-cpi-stack", fibS)
	wantOneErrorLine(t, stderr, code, "-cpi-stack")
}

// TestWhatIfParsedBeforeRun: a bad -whatif scenario is one error line
// before anything runs: no result line, and no -record ledger created, on
// a program and on a trace. A good list prints one estimate per scenario
// after the result line.
func TestWhatIfParsedBeforeRun(t *testing.T) {
	for _, input := range []string{fibS, fibTrace(t)} {
		t.Run(filepath.Base(input), func(t *testing.T) {
			ledger := filepath.Join(t.TempDir(), "x.ledger")
			stdout, stderr, code := sim(t, "-whatif", "+1 ls,+1 bogus", "-record", ledger, input)
			wantOneErrorLine(t, stderr, code, `-whatif: obs: unknown what-if scenario "+1 bogus"`)
			if stdout != "" {
				t.Errorf("refused run printed %q", stdout)
			}
			if _, err := os.Stat(ledger); !os.IsNotExist(err) {
				t.Errorf("refused run touched the ledger file (stat: %v)", err)
			}

			stdout, stderr, code = sim(t, "-whatif", "+1 ls,+1 slot", input)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			res := strings.Index(stdout, "cycles=")
			ls, slot := strings.Index(stdout, "what-if +1 LoadStore:"), strings.Index(stdout, "what-if +1 thread slot:")
			if res < 0 || ls < res || slot < ls {
				t.Errorf("want the result line, then the +1 ls and +1 slot estimates; got:\n%s", stdout)
			}
		})
	}
}

// TestInputFlagsAreChecked: flags that do not apply to the input are one
// error line naming the flag.
func TestInputFlagsAreChecked(t *testing.T) {
	tr := fibTrace(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-machine", "risc", tr}, "-machine"},
		{[]string{"-static-check", tr}, "-static-check"},
		{[]string{"-dump-mem", "0:1", tr}, "-dump-mem"},
		{[]string{"-threads", "2", tr}, "-threads"},
		{[]string{"-headroom", "10", tr}, "-headroom"},
		{[]string{"-copies", "2", fibS}, "-copies"},
		{[]string{"-machine", "vax", fibS}, "vax"},
	} {
		_, stderr, code := sim(t, tc.args...)
		wantOneErrorLine(t, stderr, code, tc.want)
	}
}

// TestRecordRunKey pins the run key of a recorded program run: the same
// flags give the same key on hirata-report record. The ledger is detached
// after the run, so a later run in the process records nothing.
func TestRecordRunKey(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "x.ledger")
	if _, stderr, code := sim(t, "-slots", "2", "-threads", "2", "-record", ledger, fibS); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := sim(t, "-slots", "2", fibS); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	keys := ledgerKeys(t, ledger)
	if len(keys) != 1 || !strings.HasPrefix(keys[0], "fa1043199d6e") {
		t.Errorf("recorded keys %q, want one with prefix fa1043199d6e", keys)
	}
}

// TestReplayRecords: a trace replay under -record appends a record.
func TestReplayRecords(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "x.ledger")
	_, stderr, code := sim(t, "-record", ledger, fibTrace(t))
	if code != 0 || !strings.Contains(stderr, "recorded run") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if keys := ledgerKeys(t, ledger); len(keys) != 1 {
		t.Errorf("ledger holds %d records, want 1", len(keys))
	}
}
