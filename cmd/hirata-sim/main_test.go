package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as hirata-sim itself when HIRATA_SIM_MAIN
// is set, so the tests drive the command's flag handling and exit status
// without building it.
func TestMain(m *testing.M) {
	if os.Getenv("HIRATA_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim re-executes the test binary as hirata-sim with args.
func runSim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HIRATA_SIM_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	var ee *exec.ExitError
	if err := cmd.Run(); errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

func TestNegativeThreadsFlag(t *testing.T) {
	_, stderr, code := runSim(t, "-threads", "-1", "../../examples/programs/fib.s")
	if code == 0 {
		t.Error("-threads -1 exited 0")
	}
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-threads") {
		t.Errorf("stderr = %q, want one line naming -threads", stderr)
	}
}

// TestObservedProfiledRun drives the run with a Collector and the host
// profiler attached: the CPI stack covers exactly the printed cycles.
func TestObservedProfiledRun(t *testing.T) {
	stdout, stderr, code := runSim(t, "-slots", "2", "-threads", "2", "-cpi-stack", "-self-profile", "../../examples/programs/fib.s")
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

// TestZeroSlotsRunsOneSlot: -slots 0 means the core's default of one slot,
// and a MinC program must be told the thread count the machine actually
// runs, so the run matches -slots 1 exactly.
func TestZeroSlotsRunsOneSlot(t *testing.T) {
	one, stderr, code := runSim(t, "-slots", "1", "../../examples/programs/mandel.mc")
	if code != 0 || !strings.HasPrefix(one, "cycles=") {
		t.Fatalf("-slots 1: exit %d, stdout %q, stderr %q", code, one, stderr)
	}
	zero, stderr, code := runSim(t, "-slots", "0", "../../examples/programs/mandel.mc")
	if code != 0 || zero != one {
		t.Errorf("-slots 0: exit %d, stdout %q, stderr %q; want the -slots 1 result %q", code, zero, stderr, one)
	}
}

// TestBadSizesAreErrors: a negative slot count, an oversized headroom and
// an oversized data image each give one error line, never a panic.
func TestBadSizesAreErrors(t *testing.T) {
	_, stderr, code := runSim(t, "-slots", "-1", "../../examples/programs/mandel.mc")
	wantOneErrorLine(t, stderr, code, "-slots")
	_, stderr, code = runSim(t, "-headroom", "9000000000000000", "../../examples/programs/fib.s")
	wantOneErrorLine(t, stderr, code, "headroom")
	big := filepath.Join(t.TempDir(), "big.s")
	if err := os.WriteFile(big, []byte("\t.data\n\t.space 9000000000000000\n\t.text\n\thalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = runSim(t, big)
	wantOneErrorLine(t, stderr, code, "line 2")
}
