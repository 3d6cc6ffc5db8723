package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	base := []float64{10, 11, 12, 10, 13, 11, 10, 12, 11, 10}
	slower := make([]float64, len(base))
	for i, v := range base {
		slower[i] = v * 1.1
	}
	tied := append([]float64(nil), base...)
	tied[0], tied[1] = 9, 12 // one win and one loss for head, eight ties
	for _, tc := range []struct {
		name        string
		head        []float64
		lowerBetter bool
		wins        int
		ratio       float64
		worse       bool
		lo, hi      float64
		exactBounds bool
	}{
		{name: "A/A", head: base, lowerBetter: true, ratio: 1, lo: 1, hi: 1, exactBounds: true},
		{name: "10% slower, lower better", head: slower, lowerBetter: true, ratio: 1.1, worse: true},
		{name: "10% more, higher better", head: slower, lowerBetter: false, wins: 10, ratio: 1.1},
		{name: "ties count for neither", head: tied, lowerBetter: true, wins: 1, ratio: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := summarize(base, tc.head, tc.lowerBetter)
			if s.wins != tc.wins || s.worse != tc.worse || !near(s.ratio, tc.ratio) {
				t.Errorf("wins %d worse %v ratio %g, want %d %v %g", s.wins, s.worse, s.ratio, tc.wins, tc.worse, tc.ratio)
			}
			if s.lo > s.ratio || s.hi < s.ratio {
				t.Errorf("interval [%g, %g] excludes the median ratio %g", s.lo, s.hi, s.ratio)
			}
			if tc.exactBounds && (s.lo != tc.lo || s.hi != tc.hi) {
				t.Errorf("interval [%g, %g], want [%g, %g]", s.lo, s.hi, tc.lo, tc.hi)
			}
			if again := summarize(base, tc.head, tc.lowerBetter); again != s {
				t.Errorf("report not reproducible: %+v then %+v", s, again)
			}
		})
	}
}

// TestSummarizeWideIntervalPasses: an interval reaching back below 1+delta
// does not fail the gate, however far its median lies past it.
func TestSummarizeWideIntervalPasses(t *testing.T) {
	base := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	head := []float64{0.9, 0.95, 1.0, 1.2, 1.3, 1.3, 1.4, 1.5, 0.9, 1.6}
	s := summarize(base, head, true)
	if s.ratio <= 1+delta || s.lo > 1+delta || s.worse {
		t.Fatalf("ratio %g interval [%g, %g] worse %v: want a median past 1+delta, an interval reaching below it, and a pass", s.ratio, s.lo, s.hi, s.worse)
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestComparePlacement compares two canned `go tool nm -n` listings: only
// text symbols of the core count, a symbol on one side only is not a move,
// and shifts are taken mod 64 in either direction.
func TestComparePlacement(t *testing.T) {
	base := `  401000 T runtime.main
  508420 T hirata/internal/core.init
  508440 T hirata/internal/core.(*Processor).Run
  508500 T hirata/internal/core.(*Processor).stepCycle
  508600 t hirata/internal/core.helper
  508700 D hirata/internal/core.table
  508800 T hirata/internal/core.gone
  508a10 T hirata/internal/core.back
  508b00 T hirata/internal/corelike.f
`
	head := `  401000 T runtime.main
  508440 T hirata/internal/core.init
  508460 T hirata/internal/core.(*Processor).Run
  508500 T hirata/internal/core.(*Processor).stepCycle
  508640 t hirata/internal/core.helper
  508780 D hirata/internal/core.table
  508a00 T hirata/internal/core.back
  508900 T hirata/internal/core.added
  508b40 T hirata/internal/corelike.f
`
	got := comparePlacement(base, head)
	want := placement{base: 6, head: 6, common: 5, moved: 4, shifts: []uint64{0, 32, 48}}
	if got.base != want.base || got.head != want.head || got.common != want.common || got.moved != want.moved ||
		!slices.Equal(got.shifts, want.shifts) {
		t.Errorf("comparePlacement = %+v, want %+v", got, want)
	}
	if same := comparePlacement(base, base); same.moved != 0 || same.common != 6 || len(same.shifts) != 0 {
		t.Errorf("a listing against itself: %+v, want 6 common symbols and none moved", same)
	}
}

// TestRun drives the tool over a throwaway repository whose benchmark is a
// shell script printing the value a file outside the benchmark holds.
func TestRun(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		out, err := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=t", "-c", "user.email=t@t"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	commit := func(files map[string]string) string {
		t.Helper()
		for name, body := range files {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		git("add", "-A")
		git("commit", "-q", "-m", "c")
		return git("rev-parse", "HEAD")
	}
	buildLog := filepath.Join(t.TempDir(), "build-dirs")
	t.Setenv("ABTEST_TEST_LOG", buildLog)
	git("init", "-q")
	base := commit(map[string]string{
		"BENCHMARK.json": `{"command": ["sh", "bench/run.sh"], "paths": ["bench"],
			"workloads": [{"name": "w"}],
			"end_to_end": [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]}`,
		"bench/run.sh": `printf '%s\t%s\n' "$PWD" "$CARGO_TARGET_DIR" >> "$ABTEST_TEST_LOG"
mkdir -p "$CARGO_TARGET_DIR"
echo "a report line"
echo "{\"correct\": $(cat correct), \"failed\": $(cat failed), \"metrics\": {\"wall_s\": {\"value\": $(cat speed)}, \"rate\": {\"value\": 5}}}"
`,
		".gitignore": ".bench_build/\n",
		"speed":      "1\n",
		"failed":     "0\n",
		"correct":    "true\n",
	})
	slower := commit(map[string]string{"speed": "1.2\n"})
	failing := commit(map[string]string{"speed": "1\n", "failed": "1\n"})
	wrong := commit(map[string]string{"failed": "0\n", "correct": "false\n"})
	benchChanged := commit(map[string]string{"correct": "true\n", "bench/run.sh": "exit 1\n"})
	badDirection := commit(map[string]string{"BENCHMARK.json": `{"command": ["sh", "bench/run.sh"], "paths": ["bench"],
		"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "better": "up"}]}`})

	cleanedUp := func(t *testing.T) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(dir, ".bench_build", "abtest", "base")); !os.IsNotExist(err) {
			t.Errorf("base worktree left behind (%v)", err)
		}
		if list := git("worktree", "list"); strings.Count(list, "\n") != 0 {
			t.Errorf("worktrees still registered:\n%s", list)
		}
	}
	for _, tc := range []struct {
		name string
		revs []string
		code int
		out  string
	}{
		{"A/A", []string{base, base}, 0, fmt.Sprintf("| w | wall_s | lower | 1 | 1 | 1.000 | [1.000, 1.000] | 0/%d | ok |", pairs)},
		{"slower", []string{base, slower}, 1, fmt.Sprintf("| w | wall_s | lower | 1 | 1.2 | 1.200 | [1.200, 1.200] | 0/%d | **worse** |", pairs)},
		{"more failures", []string{base, failing}, 1, fmt.Sprintf("| w | failed jobs | lower | 0 | %d | | | | **more failures** |", pairs)},
		{"incorrect", []string{base, wrong}, 1, "| w | failed jobs | lower | 0 | 0 | | | | **incorrect output** |"},
		{"benchmark differs", []string{base, benchChanged}, 2, ""},
		{"unknown direction", []string{badDirection, badDirection}, 2, ""},
		{"one revision", []string{base}, 2, ""},
		{"unknown revision", []string{base, "no-such-rev"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), dir, tc.revs, &stdout, &stderr)
			if code != tc.code || !strings.Contains(stdout.String(), tc.out) {
				t.Errorf("exit %d, want %d; stdout:\n%s\nstderr:\n%s\nwant a line %q", code, tc.code, stdout.String(), stderr.String(), tc.out)
			}
			// The shell benchmark builds no binary to compare.
			if noBinary := "| placement | hirata/internal/core. text symbols | | | | | | | no binary |"; tc.code != 2 && !strings.Contains(stdout.String(), noBinary) {
				t.Errorf("stdout lacks the placement row %q:\n%s", noBinary, stdout.String())
			}
			cleanedUp(t)
		})
	}
	// Each side builds in one directory of its own, outside the worktrees
	// (which are removed), and the directory outlives the comparison.
	t.Run("build directories", func(t *testing.T) {
		if err := os.Remove(buildLog); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if code := run(context.Background(), dir, []string{base, base}, io.Discard, io.Discard); code != 0 {
			t.Fatalf("exit %d, want 0", code)
		}
		data, err := os.ReadFile(buildLog)
		if err != nil {
			t.Fatal(err)
		}
		dirOf := map[string]string{} // worktree -> build directory
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			tree, build, _ := strings.Cut(line, "\t")
			if prev, ok := dirOf[tree]; ok && prev != build {
				t.Errorf("worktree %s built in %s and in %s", tree, prev, build)
			}
			dirOf[tree] = build
		}
		if len(dirOf) != 2 {
			t.Fatalf("runs came from %d worktrees, want 2: %v", len(dirOf), dirOf)
		}
		var builds []string
		for tree, build := range dirOf {
			builds = append(builds, build)
			if !filepath.IsAbs(build) {
				t.Errorf("build directory %q is not absolute", build)
			}
			for other := range dirOf {
				if rel, err := filepath.Rel(other, build); err == nil && !strings.HasPrefix(rel, "..") {
					t.Errorf("build directory %s lies inside worktree %s", build, other)
				}
			}
			if _, err := os.Stat(build); err != nil {
				t.Errorf("build directory of %s gone after the comparison: %v", tree, err)
			}
		}
		if builds[0] == builds[1] {
			t.Errorf("both sides built in %s", builds[0])
		}
		cleanedUp(t)
	})
	t.Run("interrupted", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if code := run(ctx, dir, []string{base, base}, io.Discard, io.Discard); code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
		cleanedUp(t)
	})
}
