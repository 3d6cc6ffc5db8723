package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as hirata-cc itself when HIRATA_CC_MAIN is
// set, so the tests drive the command's flag handling and exit status
// without building it.
func TestMain(m *testing.M) {
	if os.Getenv("HIRATA_CC_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCC re-executes the test binary as hirata-cc with args.
func runCC(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HIRATA_CC_MAIN=1")
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

// TestRunZeroSlotsRunsOneSlot: -slots 0 means the core's default of one
// slot, and the compiled program must be told that thread count, so the
// run matches -slots 1 exactly.
func TestRunZeroSlotsRunsOneSlot(t *testing.T) {
	one, stderr, code := runCC(t, "-run", "-slots", "1", "../../examples/programs/mandel.mc")
	if code != 0 || !strings.HasPrefix(one, "cycles=") {
		t.Fatalf("-slots 1: exit %d, stdout %q, stderr %q", code, one, stderr)
	}
	zero, stderr, code := runCC(t, "-run", "-slots", "0", "../../examples/programs/mandel.mc")
	if code != 0 || zero != one {
		t.Errorf("-slots 0: exit %d, stdout %q, stderr %q; want the -slots 1 result %q", code, zero, stderr, one)
	}
}

func TestRunNegativeSlotsFlag(t *testing.T) {
	_, stderr, code := runCC(t, "-run", "-slots", "-1", "../../examples/programs/mandel.mc")
	if code != 1 {
		t.Errorf("-slots -1: exit %d, want 1", code)
	}
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-slots") {
		t.Errorf("stderr = %q, want one line naming -slots", stderr)
	}
}
