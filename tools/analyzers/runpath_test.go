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
