package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("HIRATA_BENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bench re-executes the test binary as hirata-bench with args.
func bench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HIRATA_BENCH_MAIN=1")
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

// TestMalformedFlags: an unknown -table or a negative size is one error
// line naming the flag and exit 2, before anything runs; -table none runs
// nothing and succeeds.
func TestMalformedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "9"}, {"-rays", "-5"}, {"-spheres", "-1"}, {"-n", "-4"}, {"-nodes", "-2"}, {"-parallel", "-3"},
	} {
		t.Run(args[0]+"="+args[1], func(t *testing.T) {
			stdout, stderr, code := bench(t, args...)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d with stdout %q, want exit 2 and no output", code, stdout)
			}
			if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], args[0]) {
				t.Errorf("stderr = %q, want one line containing %q", stderr, args[0])
			}
		})
	}
	if stdout, stderr, code := bench(t, "-table", "none"); code != 0 || stdout != "" || stderr != "" {
		t.Errorf("-table none: exit %d, stdout %q, stderr %q; want a silent success", code, stdout, stderr)
	}
}
