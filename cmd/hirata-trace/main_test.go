package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs the test binary as hirata-trace itself when
// HIRATA_TRACE_MAIN is set, so the tests drive the command's flag handling
// and exit status without building it.
func TestMain(m *testing.M) {
	if os.Getenv("HIRATA_TRACE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTrace re-executes the test binary as hirata-trace with args.
func runTrace(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HIRATA_TRACE_MAIN=1")
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

// recordFib records the fib example's trace into a temporary file.
func recordFib(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fib.trace")
	stdout, stderr, code := runTrace(t, "-record", "../../examples/programs/fib.s", "-o", path)
	if code != 0 || !strings.HasPrefix(stdout, "recorded 126 instructions") {
		t.Fatalf("-record: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	return path
}

// TestRecordReplayCPIStack records a trace and replays it with the CPI
// stack: the replay runs every copy, and the stack accounts for exactly
// the replay's cycles.
func TestRecordReplayCPIStack(t *testing.T) {
	path := recordFib(t)
	stdout, stderr, code := runTrace(t, "-replay", path, "-cpi-stack")
	if code != 0 {
		t.Fatalf("-replay: exit %d, stderr %q", code, stderr)
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

func TestReplayNegativeSlotsFlag(t *testing.T) {
	_, stderr, code := runTrace(t, "-replay", recordFib(t), "-slots", "-1")
	if code == 0 {
		t.Error("-slots -1 exited 0")
	}
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-slots") {
		t.Errorf("stderr = %q, want one line naming -slots", stderr)
	}
}
