// Command abtest compares the repository benchmark at two git revisions
// (docs/PERFORMANCE.md, "Benchmarks and the CI gate"):
//
//	go run ./tools/abtest BASE HEAD
//
// It checks BASE and HEAD out as git worktrees named base and head under
// .bench_build/abtest/, so an A/A run may pass one revision twice, and
// removes them on exit. For every workload in BENCHMARK.json it runs the
// benchmark's command in both worktrees, pairs times: pair i uses seed
// i+1, base runs first on even pairs and head first on odd ones. The
// host's slow episodes last minutes, and only alternation inside one job
// spreads them over both sides. For each end-to-end metric it prints, as
// one markdown table on stdout, both sides' medians, the median of the
// per-pair HEAD/BASE ratios with a bootstrap 95% interval, and how many
// pairs HEAD won. Progress goes to stderr.
//
// Exit status 1 means a run failed or printed an incorrect result, HEAD
// failed more jobs than BASE on a workload, or a metric's interval lies
// wholly on its worse side beyond 1±delta. A wide interval alone never
// fails. Exit status 2 is a usage error, or BASE and HEAD differing in
// BENCHMARK.json or the paths it lists: a comparison needs identical
// benchmark code.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// The run plan, chosen from an A/A run of one revision against itself
// (docs/PERFORMANCE.md): with these, no A/A interval lay beyond 1±delta,
// and a slowdown of about 9% injected into the cycle loop failed table2.
const (
	pairs   = 16   // pairs of runs per workload; acceptance reads 9 wins in 10
	seconds = 6    // benchmark seconds per run
	delta   = 0.05 // how far past 1 an interval must lie to fail
)

// resamples is the bootstrap's sample count. Its generator has a fixed
// seed, so one set of runs always gives the same report.
const resamples = 10000

// benchmark is the part of BENCHMARK.json abtest reads.
type benchmark struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, ".", os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run compares revs[0] (BASE) with revs[1] (HEAD) in the git repository
// holding dir and returns the exit status.
func run(ctx context.Context, dir string, revs []string, stdout, stderr io.Writer) int {
	if len(revs) != 2 {
		fmt.Fprintln(stderr, "usage: abtest BASE HEAD")
		return 2
	}
	// git runs without ctx: removing the worktrees must work after an
	// interrupt has cancelled it.
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("git %s: %s", args[0], bytes.TrimSpace(ee.Stderr))
		}
		return strings.TrimSpace(string(out)), err
	}
	var shas [2]string
	for i, rev := range revs {
		sha, err := git("rev-parse", "--verify", "--quiet", rev+"^{commit}")
		if err != nil {
			fmt.Fprintf(stderr, "abtest: %s is not a revision\n", rev)
			return 2
		}
		shas[i] = sha
	}
	spec, err := git("show", shas[0]+":BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "abtest:", err)
		return 2
	}
	var b benchmark
	if err := json.Unmarshal([]byte(spec), &b); err != nil || len(b.Command) == 0 || len(b.Workloads) == 0 || len(b.EndToEnd) == 0 {
		fmt.Fprintf(stderr, "abtest: BENCHMARK.json at %s names no command, workloads or end-to-end metrics (%v)\n", revs[0], err)
		return 2
	}
	for _, m := range b.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			fmt.Fprintf(stderr, "abtest: BENCHMARK.json at %s: metric %s is better %q, want lower or higher\n", revs[0], m.Name, m.Better)
			return 2
		}
	}
	if _, err := git(append([]string{"diff", "--quiet", shas[0], shas[1], "--", "BENCHMARK.json"}, b.Paths...)...); err != nil {
		fmt.Fprintf(stderr, "abtest: BENCHMARK.json or %s differs between %s and %s; a comparison needs identical benchmark code\n",
			strings.Join(b.Paths, ", "), revs[0], revs[1])
		return 2
	}
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		fmt.Fprintln(stderr, "abtest:", err)
		return 2
	}
	trees := [2]string{filepath.Join(top, ".bench_build", "abtest", "base"), filepath.Join(top, ".bench_build", "abtest", "head")}
	removeTrees := func() {
		for _, t := range trees {
			git("worktree", "remove", "--force", t) // a tree an earlier run left, or none
			os.RemoveAll(t)                         // what git could not remove
		}
		git("worktree", "prune")
	}
	removeTrees()
	defer removeTrees()
	for i, t := range trees {
		if _, err := git("worktree", "add", "--detach", t, shas[i]); err != nil {
			fmt.Fprintln(stderr, "abtest:", err)
			return 2
		}
	}

	// Each worktree builds the benchmark into its own directory; a shared
	// one would let one side's binary overwrite the other's.
	env := slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, "CARGO_TARGET_DIR=") })
	fmt.Fprintf(stdout, "abtest base %.7s vs head %.7s: %d pairs of %d s runs per workload, δ = %g\n\n", shas[0], shas[1], pairs, seconds, delta)
	fmt.Fprintln(stdout, "| workload | metric | better | base | head | head/base | 95% interval | head wins | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|")
	code := 0
	first := b.EndToEnd[0].Name // shown in each run's progress line
	for _, w := range b.Workloads {
		var vals [2]map[string][]float64
		var failed [2]int
		incorrect := false
		for i := range vals {
			vals[i] = map[string][]float64{}
		}
		for p := 0; p < pairs; p++ {
			for _, side := range [][2]int{{0, 1}, {1, 0}}[p%2] {
				r, err := runOnce(ctx, trees[side], b.Command, w.Name, p+1, env, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "abtest:", err)
					return 1
				}
				fmt.Fprintf(stderr, "abtest: %s pair %d/%d %s: %s %.4g\n", w.Name, p+1, pairs, [2]string{"base", "head"}[side], first, r.Metrics[first].Value)
				incorrect = incorrect || !r.Correct
				failed[side] += r.Failed
				for _, m := range b.EndToEnd {
					v, ok := r.Metrics[m.Name]
					if !ok {
						fmt.Fprintf(stderr, "abtest: %s run at %s printed no %s\n", w.Name, revs[side], m.Name)
						return 1
					}
					vals[side][m.Name] = append(vals[side][m.Name], v.Value)
				}
			}
		}
		for _, m := range b.EndToEnd {
			s := summarize(vals[0][m.Name], vals[1][m.Name], m.Better == "lower")
			verdict := "ok"
			if s.worse {
				verdict, code = "**worse**", 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4g | %.4g | %.3f | [%.3f, %.3f] | %d/%d | %s |\n",
				w.Name, m.Name, m.Better, s.base, s.head, s.ratio, s.lo, s.hi, s.wins, pairs, verdict)
		}
		verdict := "ok"
		switch {
		case incorrect:
			verdict, code = "**incorrect output**", 1
		case failed[1] > failed[0]:
			verdict, code = "**more failures**", 1
		}
		fmt.Fprintf(stdout, "| %s | failed jobs | lower | %d | %d | | | | %s |\n", w.Name, failed[0], failed[1], verdict)
	}
	return code
}

// runOnce runs the benchmark command once in dir and parses the result
// from the last line of its stdout.
func runOnce(ctx context.Context, dir string, command []string, workload string, seed int, env []string, stderr io.Writer) (result, error) {
	args := append(slices.Clip(command[1:]), "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, command[0], args...)
	cmd.Dir, cmd.Env, cmd.Stderr = dir, env, stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s in %s: %w", strings.Join(cmd.Args, " "), dir, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s in %s: last line is not a result: %v", strings.Join(cmd.Args, " "), dir, err)
	}
	return r, nil
}

// summary is one metric's comparison over the pairs.
type summary struct {
	base, head float64 // each side's median
	ratio      float64 // median of the per-pair head/base ratios
	lo, hi     float64 // bootstrap 95% interval for ratio
	wins       int     // pairs in which head was better; a tie counts for neither
	worse      bool    // the interval lies wholly beyond 1±delta on the worse side
}

func summarize(base, head []float64, lowerBetter bool) summary {
	s := summary{base: median(base), head: median(head)}
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = 1
		if head[i] != base[i] {
			ratios[i] = head[i] / base[i]
		}
		if lowerBetter && head[i] < base[i] || !lowerBetter && head[i] > base[i] {
			s.wins++
		}
	}
	s.ratio = median(ratios)
	rng := rand.New(rand.NewPCG(1, 2))
	meds := make([]float64, resamples)
	sample := make([]float64, len(ratios))
	for k := range meds {
		for i := range sample {
			sample[i] = ratios[rng.IntN(len(ratios))]
		}
		meds[k] = median(sample)
	}
	slices.Sort(meds)
	s.lo, s.hi = meds[resamples/40], meds[resamples-1-resamples/40]
	if lowerBetter {
		s.worse = s.lo > 1+delta
	} else {
		s.worse = s.hi < 1-delta
	}
	return s
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
