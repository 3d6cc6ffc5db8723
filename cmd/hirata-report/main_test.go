package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as hirata-report itself when
// HIRATA_REPORT_MAIN is set, so the tests drive the command's flag
// handling and exit status without building it.
func TestMain(m *testing.M) {
	if os.Getenv("HIRATA_REPORT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runReport re-executes the test binary as hirata-report with args.
func runReport(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HIRATA_REPORT_MAIN=1")
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

func TestRecordNegativeThreadsFlag(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "x.ledger")
	_, stderr, code := runReport(t, "record", "-ledger", ledger, "-threads", "-1", "../../examples/programs/fib.s")
	if code == 0 {
		t.Error("record -threads -1 exited 0")
	}
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-threads") {
		t.Errorf("stderr = %q, want one line naming -threads", stderr)
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Errorf("refused record touched the ledger file (stat: %v)", err)
	}
}

func TestRecordProgram(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "x.ledger")
	stdout, stderr, code := runReport(t, "record", "-ledger", ledger, "-slots", "2", "-threads", "2", "../../examples/programs/fib.s")
	if code != 0 || !strings.HasPrefix(stdout, "recorded ") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	stdout, stderr, code = runReport(t, "ls", "-ledger", ledger)
	if code != 0 || !strings.Contains(stdout, "exact-cpi") || !strings.Contains(stdout, "bounds") {
		t.Errorf("ls: exit %d, stdout %q, stderr %q; want one record with exact-cpi and bounds", code, stdout, stderr)
	}
}

// TestRecordZeroSlotsRunsOneSlot: -slots 0 records the one-slot run a
// MinC program is told about, matching -slots 1.
func TestRecordZeroSlotsRunsOneSlot(t *testing.T) {
	cycles := func(slots string) string {
		ledger := filepath.Join(t.TempDir(), "x.ledger")
		stdout, stderr, code := runReport(t, "record", "-ledger", ledger, "-slots", slots, "../../examples/programs/mandel.mc")
		_, result, ok := strings.Cut(stdout, " cycles=")
		if code != 0 || !ok {
			t.Fatalf("-slots %s: exit %d, stdout %q, stderr %q", slots, code, stdout, stderr)
		}
		return result
	}
	if zero, one := cycles("0"), cycles("1"); zero != one {
		t.Errorf("-slots 0 recorded cycles=%s, -slots 1 cycles=%s", zero, one)
	}
}

// TestRecordBadSizesAreErrors: a negative -slots and an oversized
// -headroom each give one error line and leave the ledger untouched.
func TestRecordBadSizesAreErrors(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-slots", "-1", "-slots"},
		{"-headroom", "9000000000000000", "headroom"},
	} {
		ledger := filepath.Join(t.TempDir(), "x.ledger")
		_, stderr, code := runReport(t, "record", "-ledger", ledger, tc.flag, tc.value, "../../examples/programs/mandel.mc")
		if code != 1 {
			t.Errorf("%s %s: exit %d, want 1", tc.flag, tc.value, code)
		}
		if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], tc.want) {
			t.Errorf("%s %s: stderr = %q, want one line containing %q", tc.flag, tc.value, stderr, tc.want)
		}
		if _, err := os.Stat(ledger); !os.IsNotExist(err) {
			t.Errorf("%s %s: refused record touched the ledger file (stat: %v)", tc.flag, tc.value, err)
		}
	}
}
