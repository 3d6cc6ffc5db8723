package main

import (
	"strings"
	"testing"
)

const runPathFixture = `package p

import "hirata/internal/core"

// bad: builds and runs a processor outside the facade's run tail.
func replay(cfg core.Config, traces [][]core.TraceInput) (core.Result, error) {
	p, err := core.NewTraceDriven(cfg, traces)
	if err != nil {
		return core.Result{}, err
	}
	return p.Run()
}

// bad: the same for a program run.
func run(cfg core.Config) (core.Result, error) {
	p, err := core.New(cfg, nil, nil)
	if err != nil {
		return core.Result{}, err
	}
	return p.Run()
}

// good: other core identifiers are fine anywhere.
func slots(cfg core.Config) int { return cfg.Effective().ThreadSlots }
`

// A direct call from another root-package file or from a command is a
// finding, one per constructor. The exemption names the root package's
// file, not any file so named.
func TestRunPathFindings(t *testing.T) {
	for _, tc := range []struct{ pkgPath, file string }{
		{"hirata", "multiprogram.go"},
		{"hirata/cmd/hirata-trace", "main.go"},
		{"hirata/cmd/hirata-sim", runTailFile},
	} {
		fset, files, info := typecheckFile(t, tc.pkgPath, tc.file, runPathFixture)
		fs := checkRunPath(fset, tc.pkgPath, files, info)
		if len(fs) != 2 {
			t.Fatalf("%s/%s: runpath findings = %d, want 2:\n%s", tc.pkgPath, tc.file, len(fs), strings.Join(fs, "\n"))
		}
		joined := strings.Join(fs, "\n")
		for _, want := range []string{"core.New ", "core.NewTraceDriven "} {
			if !strings.Contains(joined, want) {
				t.Errorf("%s/%s: no %s finding:\n%s", tc.pkgPath, tc.file, want, joined)
			}
		}
	}
}

// The run tail's own file, test files, the benchmark module and
// internal/core itself may build processors.
func TestRunPathExemptions(t *testing.T) {
	for _, tc := range []struct{ pkgPath, file string }{
		{"hirata", runTailFile},
		{"hirata", "api_test.go"},
		{"hirata/cmd/hirata-trace", "main_test.go"},
		{"hirata/perfbench", "env.go"},
		{"hirata/internal/core", "processor.go"},
	} {
		fset, files, info := typecheckFile(t, tc.pkgPath, tc.file, runPathFixture)
		if fs := checkRunPath(fset, tc.pkgPath, files, info); len(fs) != 0 {
			t.Errorf("%s/%s: runpath findings on an exempt file:\n%s", tc.pkgPath, tc.file, strings.Join(fs, "\n"))
		}
	}
}

const facadeRunFixture = `package hirata

func Run()          {}
func RunMT()        {}
func RunRISC()      {}
func ReplayTraces() {}

type machine struct{}

// good: a method that shares an entry point's name is not one.
func (machine) Run() {}

// bad: an experiment that runs its simulations outside the grid.
func table() {
	Run()
	RunMT()
	RunRISC()
	f := ReplayTraces
	f()
	machine{}.Run()
}
`

// Inside the root package, every use of a run entry point outside the
// facade and the grid is a finding; the facade, the grid, test files and
// other packages may use them.
func TestRunPathFacadeRuns(t *testing.T) {
	for _, tc := range []struct {
		pkgPath, file string
		want          int
	}{
		{"hirata", "multiprogram.go", 4},
		{"hirata", runTailFile, 0},
		{"hirata", gridFile, 0},
		{"hirata", "experiments_test.go", 0},
		{"hirata/cmd/hirata-bench", "main.go", 0},
	} {
		fset, files, info := typecheckFile(t, tc.pkgPath, tc.file, facadeRunFixture)
		fs := checkRunPath(fset, tc.pkgPath, files, info)
		if len(fs) != tc.want {
			t.Errorf("%s/%s: runpath findings = %d, want %d:\n%s", tc.pkgPath, tc.file, len(fs), tc.want, strings.Join(fs, "\n"))
		}
	}
}
