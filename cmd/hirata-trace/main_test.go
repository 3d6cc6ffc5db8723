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

// TestRecordStats records the fib example's trace to a file: -stats on the
// file prints the same dynamic mix as -record without -o.
func TestRecordStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fib.trace")
	stdout, stderr, code := runTrace(t, "-record", "../../examples/programs/fib.s", "-o", path)
	if code != 0 || !strings.HasPrefix(stdout, "recorded 126 instructions") {
		t.Fatalf("-record: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	direct, stderr, code := runTrace(t, "-record", "../../examples/programs/fib.s")
	if code != 0 || !strings.HasPrefix(direct, "instructions: 126\n") {
		t.Fatalf("-record without -o: exit %d, stdout %q, stderr %q", code, direct, stderr)
	}
	stats, stderr, code := runTrace(t, "-stats", path)
	if code != 0 || stats != direct {
		t.Errorf("-stats: exit %d, stdout %q, stderr %q; want %q", code, stats, stderr, direct)
	}
}

// TestRecordMinC: a .mc program is compiled, not assembled; a forking
// kernel is then refused by the functional model in one error line.
func TestRecordMinC(t *testing.T) {
	_, stderr, code := runTrace(t, "-record", "../../examples/programs/mandel.mc")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "ffork requires the multithreaded machine") {
		t.Errorf("stderr = %q, want one line from the functional model", stderr)
	}
}
