package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cleanSrc = `
	li   r1, 7
	halt
`

// dirtySrc reads r2 before any definition (L001) but assembles fine.
const dirtySrc = `
	add  r1, r2, r2
	halt
`

// brokenSrc does not assemble at all.
const brokenSrc = `
	frobnicate r1, r2
`

// racySrc: two threads both store to the same word with no ordering.
const racySrc = `
	.data
out:	.word 0
	.text
	setmode 1
	ffork
	tid  r1
	la   r2, out
	sw   r1, 0(r2)
	halt
`

func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	clean := writeTemp(t, "clean.s", cleanSrc)
	dirty := writeTemp(t, "dirty.s", dirtySrc)
	broken := writeTemp(t, "broken.s", brokenSrc)

	if code, _, _ := runLint(t, clean); code != 0 {
		t.Errorf("clean program: exit %d, want 0", code)
	}

	code, stdout, _ := runLint(t, dirty)
	if code != 1 {
		t.Errorf("dirty program: exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "L001") {
		t.Errorf("dirty program stdout missing L001 finding:\n%s", stdout)
	}

	code, _, stderr := runLint(t, broken)
	if code != 3 {
		t.Errorf("unassemblable program: exit %d, want 3", code)
	}
	if !strings.Contains(stderr, "does not build") {
		t.Errorf("unassemblable program stderr missing message:\n%s", stderr)
	}

	// Assemble failure outranks lint findings when both occur.
	if code, _, _ := runLint(t, dirty, broken); code != 3 {
		t.Errorf("dirty+broken: exit %d, want 3", code)
	}

	if code, _, _ := runLint(t); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code, _, _ := runLint(t, "-json", "-sarif", clean); code != 2 {
		t.Errorf("-json -sarif: exit %d, want 2", code)
	}
}

func TestInterThreadFlag(t *testing.T) {
	racy := writeTemp(t, "racy.s", racySrc)

	// Without -interthread the race checks do not run.
	if code, stdout, _ := runLint(t, racy); code != 0 {
		t.Errorf("racy without -interthread: exit %d, want 0\n%s", code, stdout)
	}

	code, stdout, _ := runLint(t, "-interthread", racy)
	if code != 1 {
		t.Errorf("racy with -interthread: exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "L010") {
		t.Errorf("racy -interthread stdout missing L010:\n%s", stdout)
	}
}

// TestMalformedFlags: a negative or oversized machine number, or an entry
// pc outside the 11-instruction fib.s, is one error line naming the flag
// and exit 2; the largest accepted values lint the program.
func TestMalformedFlags(t *testing.T) {
	fib := filepath.Join("..", "..", "examples", "programs", "fib.s")
	for _, tc := range []struct {
		flag, value string
		bad         bool
	}{
		{"slots", "-1", true}, {"slots", "100", true}, {"slots", "64", false},
		{"issue-width", "-3", true}, {"issue-width", "17", true}, {"issue-width", "16", false},
		{"queue-depth", "-2", true}, {"mem-size", "-5", true},
		{"entries", "-4", true}, {"entries", "100", true}, {"entries", "0,11", true}, {"entries", "0,10", false},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			code, stdout, stderr := runLint(t, "-bound", "-"+tc.flag, tc.value, fib)
			if !tc.bad {
				if code == 2 || stderr != "" {
					t.Errorf("exit %d, stderr %q; want the program linted", code, stderr)
				}
				return
			}
			if code != 2 || stdout != "" {
				t.Errorf("exit %d with stdout %q, want exit 2 and no output", code, stdout)
			}
			if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-"+tc.flag) {
				t.Errorf("stderr = %q, want one line containing %q", stderr, "-"+tc.flag)
			}
		})
	}
}

func TestMemSizeFlag(t *testing.T) {
	// A store beyond a 16-word memory is only catchable when the size is
	// declared.
	src := `
	li   r1, 100
	sw   r1, 0(r1)
	lw   r2, 0(r1)
	halt
`
	p := writeTemp(t, "oob.s", src)
	if code, _, _ := runLint(t, "-interthread", p); code != 0 {
		t.Errorf("oob without -mem-size: exit %d, want 0", code)
	}
	code, stdout, _ := runLint(t, "-interthread", "-mem-size", "16", p)
	if code != 1 {
		t.Errorf("oob with -mem-size 16: exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "L011") {
		t.Errorf("oob stdout missing L011:\n%s", stdout)
	}
}

func TestJSONOutput(t *testing.T) {
	dirty := writeTemp(t, "dirty.s", dirtySrc)
	code, stdout, _ := runLint(t, "-json", dirty)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var got []struct {
		File string `json:"file"`
		Diag struct {
			Code string `json:"code"`
		} `json:"diag"`
	}
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if len(got) == 0 || got[0].Diag.Code != "L001" {
		t.Errorf("JSON findings = %+v, want L001 first", got)
	}
}

func TestSARIFOutput(t *testing.T) {
	dirty := writeTemp(t, "dirty.s", dirtySrc)
	code, stdout, _ := runLint(t, "-sarif", dirty)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "hirata-lint" {
		t.Fatalf("SARIF runs/tool malformed: %+v", log.Runs)
	}
	if n := len(log.Runs[0].Tool.Driver.Rules); n != 17 {
		t.Errorf("SARIF rule count = %d, want 17 (L001..L017)", n)
	}
	rs := log.Runs[0].Results
	if len(rs) == 0 || rs[0].RuleID != "L001" {
		t.Fatalf("SARIF results = %+v, want an L001 result", rs)
	}
	if len(rs[0].Locations) == 0 || rs[0].Locations[0].PhysicalLocation.ArtifactLocation.URI == "" {
		t.Errorf("SARIF result missing artifact location: %+v", rs[0])
	}

	// A clean run still emits a valid, empty SARIF log (needed so the CI
	// upload step always has a file).
	clean := writeTemp(t, "clean.s", cleanSrc)
	code, stdout, _ = runLint(t, "-sarif", clean)
	if code != 0 {
		t.Fatalf("clean -sarif exit %d, want 0", code)
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("bad clean SARIF: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean SARIF should have one run with zero results")
	}
}

// sarifLog mirrors the slice of SARIF 2.1.0 the golden fixture test needs:
// one run, per-file artifact entries, and results whose locations carry
// both the artifact index and the source line.
type sarifLog struct {
	Runs []struct {
		Artifacts []struct {
			Location struct {
				URI string `json:"uri"`
			} `json:"location"`
		} `json:"artifacts"`
		Results []struct {
			RuleID    string `json:"ruleId"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI   string `json:"uri"`
						Index *int   `json:"index"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine int `json:"startLine"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// TestDeadlockFixturesSARIF pins the L015/L016 diagnostics for the shipped
// intentionally-deadlocked fixtures: rule, file, artifact index, and source
// line are all part of the contract (CI consumes this SARIF directly).
func TestDeadlockFixturesSARIF(t *testing.T) {
	deadlock := filepath.Join("testdata", "deadlock.s")
	overflow := filepath.Join("testdata", "overflow.s")
	code, stdout, stderr := runLint(t,
		"-deadlock", "-slots", "2", "-entries", "0,4", "-sarif",
		deadlock, overflow)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v\n%s", err, stdout)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("SARIF runs = %d, want exactly 1", len(log.Runs))
	}
	run := log.Runs[0]
	if len(run.Artifacts) != 2 ||
		run.Artifacts[0].Location.URI != deadlock ||
		run.Artifacts[1].Location.URI != overflow {
		t.Fatalf("artifacts = %+v, want [%s %s]", run.Artifacts, deadlock, overflow)
	}

	want := []struct {
		rule string
		uri  string
		idx  int
		line int
	}{
		{"L015", deadlock, 0, 6},
		{"L016", overflow, 1, 10},
	}
	if len(run.Results) != len(want) {
		t.Fatalf("results = %d, want %d:\n%s", len(run.Results), len(want), stdout)
	}
	for i, w := range want {
		r := run.Results[i]
		if r.RuleID != w.rule {
			t.Errorf("result %d rule = %s, want %s", i, r.RuleID, w.rule)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != w.uri {
			t.Errorf("result %d uri = %s, want %s", i, loc.ArtifactLocation.URI, w.uri)
		}
		if loc.ArtifactLocation.Index == nil || *loc.ArtifactLocation.Index != w.idx {
			t.Errorf("result %d artifact index = %v, want %d", i, loc.ArtifactLocation.Index, w.idx)
		}
		if loc.Region.StartLine != w.line {
			t.Errorf("result %d line = %d, want %d", i, loc.Region.StartLine, w.line)
		}
	}
}

// TestBoundFlag smoke-tests the human-readable bound report.
func TestBoundFlag(t *testing.T) {
	clean := writeTemp(t, "clean.s", cleanSrc)
	code, stdout, _ := runLint(t, "-bound", clean)
	if code != 0 {
		t.Fatalf("-bound exit %d, want 0\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "static lower bound") {
		t.Errorf("-bound output missing report:\n%s", stdout)
	}
	if code, _, _ := runLint(t, "-bound", "-sarif", clean); code != 2 {
		t.Errorf("-bound -sarif: exit %d, want 2", code)
	}
}
