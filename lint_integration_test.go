package hirata_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hirata"
)

// TestWorkloadsLintClean runs the static verifier over every paper
// workload program; the generators must emit protocol-clean code.
func TestWorkloadsLintClean(t *testing.T) {
	progs := map[string]*hirata.Program{}

	rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["raytrace-seq"], progs["raytrace-par"] = rt.Seq, rt.Par

	lk, err := hirata.BuildLivermore(hirata.LivermoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["livermore-seq"], progs["livermore-par"] = lk.Seq, lk.Par

	ll, err := hirata.BuildLinkedList(hirata.LinkedListConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["linkedlist-seq"], progs["linkedlist-par"] = ll.Seq, ll.Par

	rc, err := hirata.BuildRecurrence(hirata.RecurrenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["recurrence-seq"], progs["recurrence-par"] = rc.Seq, rc.Par

	rd, err := hirata.BuildRadiosity(hirata.RadiosityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["radiosity"] = rd.Prog

	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			for _, d := range hirata.Lint(p) {
				t.Errorf("%s: %v", name, d)
			}
		})
	}
}

// TestWorkloadsDeadlockClean runs the queue-protocol deadlock verifier
// (L015-L017, docs/LINT.md) over every paper workload: the generators'
// queue rings must be provably free of ring deadlocks, overflows and
// unbounded spins. CI runs this alongside `hirata-lint -deadlock` over the
// shipped examples (make lint-bounds).
func TestWorkloadsDeadlockClean(t *testing.T) {
	progs := map[string]*hirata.Program{}

	rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["raytrace-seq"], progs["raytrace-par"] = rt.Seq, rt.Par

	lk, err := hirata.BuildLivermore(hirata.LivermoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["livermore-seq"], progs["livermore-par"] = lk.Seq, lk.Par

	ll, err := hirata.BuildLinkedList(hirata.LinkedListConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["linkedlist-seq"], progs["linkedlist-par"] = ll.Seq, ll.Par

	rc, err := hirata.BuildRecurrence(hirata.RecurrenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["recurrence-seq"], progs["recurrence-par"] = rc.Seq, rc.Par

	rd, err := hirata.BuildRadiosity(hirata.RadiosityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["radiosity"] = rd.Prog

	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			cfg := hirata.LintConfig{InterThread: true, Deadlock: true}
			for _, d := range hirata.LintWithConfig(p, cfg) {
				t.Errorf("%s: %v", name, d)
			}
		})
	}
}

// TestExampleMinCLintClean compiles every shipped MinC example and
// verifies the generated code.
func TestExampleMinCLintClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "programs", "*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no MinC examples found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := hirata.CompileMinC(string(src))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, d := range hirata.Lint(p) {
				t.Errorf("%s: %v", filepath.Base(path), d)
			}
		})
	}
}

// TestStrictVerify checks the StrictVerify run gate on both machines and
// under every combination of run options.
func TestStrictVerify(t *testing.T) {
	bad := hirata.Program{}
	{
		p, err := hirata.Assemble("\tadd r3, r1, r2\n") // uninit reads, no halt
		if err != nil {
			t.Fatal(err)
		}
		bad = *p
	}
	good, err := hirata.Assemble("\tli r1, 2\n\tadd r2, r1, r1\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := hirata.RunMT(hirata.MTConfig{StrictVerify: true}, bad.Text, hirata.NewMemory(16)); err == nil {
		t.Error("RunMT(StrictVerify) accepted a bad program")
	} else if !strings.Contains(err.Error(), "L001") {
		t.Errorf("RunMT error does not carry diagnostics: %v", err)
	}
	if _, err := hirata.RunMT(hirata.MTConfig{StrictVerify: true}, good.Text, hirata.NewMemory(16)); err != nil {
		t.Errorf("RunMT(StrictVerify) rejected a clean program: %v", err)
	}

	// A program that halts but reads uninitialized registers (L001): it
	// runs to completion without the gate, so only the gate can refuse it.
	// Every combination of run options must apply the same gate.
	halting, err := hirata.Assemble("\tadd r3, r1, r2\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range hirata.RunOptionCases {
		run := func(cfg hirata.MTConfig) error {
			_, err := hirata.Run(cfg, halting.Text, hirata.NewMemory(16), oc.Options(cfg))
			return err
		}
		if err := run(hirata.MTConfig{}); err != nil {
			t.Errorf("Run(%s) without StrictVerify: %v", oc.Name, err)
		}
		if err := run(hirata.MTConfig{StrictVerify: true}); err == nil {
			t.Errorf("Run(%s, StrictVerify) ran a program with findings", oc.Name)
		} else if !strings.Contains(err.Error(), "L001") {
			t.Errorf("Run(%s) error does not carry diagnostics: %v", oc.Name, err)
		}
	}

	if _, err := hirata.RunRISC(hirata.RISCConfig{StrictVerify: true}, bad.Text, hirata.NewMemory(16)); err == nil {
		t.Error("RunRISC(StrictVerify) accepted a bad program")
	}
	if _, err := hirata.RunRISC(hirata.RISCConfig{StrictVerify: true}, good.Text, hirata.NewMemory(16)); err != nil {
		t.Errorf("RunRISC(StrictVerify) rejected a clean program: %v", err)
	}
}
