// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from one process, checks every simulated result
// against the outcomes recorded in testdata/expected.json, prints a
// report and, as its last line, one JSON object with the metrics.
//
// Run it from the repository root (run.py builds and runs it):
//
//	python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0
//
// With -trace 0 it reports end-to-end metrics from untraced passes. With
// -trace 1 it alternates untraced and traced passes and reports the
// per-layer breakdown of the traced ones plus the tracing overhead.
// perfbench -record re-records testdata/expected.json from every job of
// every workload pool.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// bench is one benchmark workload: setup builds its inputs from the
// seed, pass runs every job once and checks it.
type bench interface {
	setup(e *env) error
	pass(e *env)
}

func newWorkload(name string, seed int64) (bench, error) {
	switch name {
	case "table2":
		return newTable2(seed), nil
	case "remote-mt":
		return newRemoteMT(seed), nil
	case "examples":
		return newExamples(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table2, remote-mt or examples)", name)
}

// sumTolerance bounds the gap between the summed per-layer self times
// and the traced wall time they account for.
const sumTolerance = 0.01

func main() {
	var (
		name     = flag.String("workload", "", "workload: table2, remote-mt or examples")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured time in seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
		revision = flag.String("revision", "unknown", "revision of the code under test")
		dirty    = flag.String("dirty", "unknown", "whether the tree had uncommitted changes")
		root     = flag.String("root", ".", "repository root")
		record   = flag.Bool("record", false, "re-record "+expectedFile+" from every pool job")
	)
	flag.Parse()
	if *record {
		if err := recordAll(*root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, err := newWorkload(*name, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d revision=%s dirty=%s go=%s gomaxprocs=%d\n",
		*name, *seed, *seconds, *traced, *revision, *dirty, runtime.Version(), runtime.GOMAXPROCS(0))
	r := &runner{root: *root, name: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	var res result
	var err error
	if *traced == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, msg := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runner struct {
	root, name string
	seed       int64
	budget     time.Duration

	attempted, failed int
	errs              []string
}

// setup builds the workload once under tr, loading the expectations as
// part of it, and returns its env and wall time.
func (r *runner) setup(tr *tracer) (bench, *env, time.Duration, error) {
	w, err := newWorkload(r.name, r.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	e := &env{root: r.root, tr: tr}
	runtime.GC()
	t0 := time.Now()
	s := tr.begin("setup")
	e.exp, err = loadExpectations(filepath.Join(r.root, expectedFile))
	if err == nil {
		err = w.setup(e)
	}
	tr.end(s)
	return w, e, time.Since(t0), err
}

// passStat is one pass's measurement.
type passStat struct {
	wall  time.Duration
	alloc uint64
	c     counts
}

// passHeapLimit caps the heap while a pass runs with the collector off.
const passHeapLimit = 384 << 20

// pass runs one pass. Every pass starts from a collected heap, so the
// garbage of the one before is not collected on its time, and runs with
// the collector off up to passHeapLimit, so collection pacing stays out
// of the pass times; alloc_mb reports the allocation instead. The
// warm-up pass (collectPerJob) keeps the collector on, so the peak
// resident memory it leaves is the demand of its largest job.
func (r *runner) pass(w bench, e *env) passStat {
	e.c = counts{}
	runtime.GC()
	if !e.collectPerJob {
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(passHeapLimit))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	s := e.tr.begin("pass")
	w.pass(e)
	e.tr.end(s)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	r.attempted += e.c.jobs
	r.failed += e.c.failed
	if len(r.errs) < 20 {
		r.errs = append(r.errs, e.errs...)
	}
	e.errs = nil
	return passStat{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, c: e.c}
}

// untraced measures the end-to-end metrics.
//
// The host is shared, and its speed changes from second to second: while
// a neighbour loads it, identical passes take 1.5–1.7× as long, and
// thread CPU time grows with them, so the loss is the core's throughput
// and not the scheduler. Some runs spend most of their time in that
// state, which moves a median over all passes by tens of percent. Host
// noise only ever adds time, and every pass does the same work, so the
// timings come from the quietest tenth of the passes (least wall time),
// and at least three. setup_s comes from as many of the quietest
// set-ups. The report also prints the median over all passes.
func (r *runner) untraced() (result, error) {
	w, e, d, err := r.setup(newTracer(false))
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{d.Seconds()}

	// Warm-up: caches fill and lazy set-up finishes. Each of its jobs
	// starts from a collected heap, so the peak resident memory it leaves
	// is the largest job's demand and not an accident of GC pacing.
	e.collectPerJob = true
	r.pass(w, e)
	e.collectPerJob = false
	peakRSS := peakRSSMB()
	e.jobNs = nil
	type timedPass struct {
		passStat
		jobs []time.Duration
	}
	var passes []timedPass
	start := time.Now()
	for len(passes) < 4 || time.Since(start) < r.budget {
		ps := r.pass(w, e)
		passes = append(passes, timedPass{ps, e.jobNs})
		e.jobNs = nil

		// Set up again after every pass, so setup_s samples the same
		// stretch of host time as the passes.
		if _, _, d, err = r.setup(newTracer(false)); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	var allWalls, alloc []float64
	for _, ps := range passes {
		allWalls = append(allWalls, ps.wall.Seconds())
		alloc = append(alloc, float64(ps.alloc)/1e6)
	}
	slices.SortFunc(passes, func(a, b timedPass) int { return cmp.Compare(a.wall, b.wall) })
	n := min(len(passes), max(3, (len(passes)+9)/10))
	quiet := passes[:n]
	var walls, cyc, ins, jobs []float64
	for _, ps := range quiet {
		sec := ps.wall.Seconds()
		walls = append(walls, sec)
		cyc = append(cyc, float64(ps.c.simCycles)/sec)
		ins = append(ins, float64(ps.c.simInstr)/sec)
		for _, d := range ps.jobs {
			jobs = append(jobs, float64(d.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(jobs)
	sort.Float64s(setups)

	m := map[string]metric{
		"wall_s":           {median(walls), "s"},
		"job_ms.p50":       {quantile(jobs, 0.50), "ms"},
		"job_ms.p90":       {quantile(jobs, 0.90), "ms"},
		"sim_cycles_per_s": {median(cyc), "1/s"},
		"sim_instr_per_s":  {median(ins), "1/s"},
		"setup_s":          {median(setups[:n]), "s"},
		"alloc_mb":         {median(alloc), "MB"},
		"peak_rss_mb":      {peakRSS, "MB"},
	}
	fmt.Printf("setup: %d runs, median %.4f s; passes: %d (quietest %d timed), jobs timed: %d, jobs attempted: %d, failed: %d\n",
		len(setups), median(setups), len(passes), len(quiet), len(jobs), r.attempted, r.failed)
	fmt.Printf("host: median pass %.4f s over all passes, %.4f s over the quietest %d (%.3f×)\n",
		median(allWalls), median(walls), n, median(allWalls)/median(walls))
	printMetrics(m)
	return result{Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// traced measures the per-layer breakdown: one traced setup, then
// untraced and traced passes alternately. Every per-layer time is the
// traced setup's self time plus the mean self time of a traced pass.
func (r *runner) traced() (result, error) {
	tr := newTracer(true)
	w, e, setupWall, err := r.setup(tr)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	setupSelf := tr.selfTimes(0)
	tr.on = false
	r.pass(w, e) // warm-up

	passSelf := map[string]time.Duration{}
	var plain, tracedWalls []float64
	var tracedWall time.Duration
	var c, plainC counts
	start := time.Now()
	for len(tracedWalls) < 3 || time.Since(start) < r.budget {
		tr.on = false
		ps := r.pass(w, e)
		plain = append(plain, ps.wall.Seconds())
		plainC = ps.c

		tr.on = true
		mark := len(tr.spans)
		ps = r.pass(w, e)
		tr.on = false
		tracedWalls = append(tracedWalls, ps.wall.Seconds())
		tracedWall += ps.wall
		for k, v := range tr.selfTimes(mark) {
			passSelf[k] += v
		}
		c = ps.c
		if !sameSimulation(plainC, c) {
			r.failed++
			r.errs = append(r.errs, fmt.Sprintf("traced pass simulated %+v, untraced %+v", c, plainC))
		}
	}
	n := time.Duration(len(tracedWalls))
	layer := func(name string) time.Duration { return setupSelf[name] + passSelf[name]/n }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	m := map[string]metric{}
	var sum time.Duration
	for _, l := range layerNames {
		d := layer(l)
		sum += d
		m[l+"_ms"] = metric{ms(d), "ms"}
	}
	other := layer("setup") + layer("pass")
	sum += other
	m["other_ms"] = metric{ms(other), "ms"}

	coreTime := passSelf["core.run"]/n + passSelf["core.replay"]/n
	m["core.ns_per_step"] = metric{ratio(float64(coreTime.Nanoseconds()), float64(c.coreSteps)), "ns"}
	m["core.ns_per_sim_cycle"] = metric{ratio(float64(coreTime.Nanoseconds()), float64(c.coreCycles)), "ns"}
	m["core.steps"] = metric{float64(c.coreSteps), "count"}
	m["core.skip_jumps"] = metric{float64(c.skipJumps), "count"}
	m["core.skip_frac"] = metric{1 - ratio(float64(c.coreSteps), float64(c.coreCycles)), "ratio"}
	m["core.sim_cycles"] = metric{float64(c.coreCycles), "count"}
	m["core.instructions"] = metric{float64(c.coreInstr), "count"}
	m["risc.sim_cycles"] = metric{float64(c.riscCycles), "count"}
	m["obs.events"] = metric{float64(c.obsEvents), "count"}
	m["obs.dropped"] = metric{float64(c.obsDropped), "count"}
	m["lint.findings"] = metric{float64(c.lintFindings), "count"}
	m["lint.bound_ratio"] = metric{ratio(float64(c.boundSum), float64(c.boundCycles)), "ratio"}
	m["runledger.bytes"] = metric{float64(c.ledgerBytes), "bytes"}
	m["paper_err_pct"] = metric{c.paperErrPct, "%"}
	m["fail_frac"] = metric{ratio(float64(r.failed), float64(r.attempted)), "ratio"}
	overhead := median(tracedWalls) - median(plain)
	m["tracing_overhead_ms"] = metric{overhead * 1e3, "ms"}

	accounted := setupWall + tracedWall/n
	gap := ratio(ms(sum)-ms(accounted), ms(accounted))
	fmt.Printf("traced: %d passes (median %.4f s), untraced: %d passes (median %.4f s), tracing overhead %.3f ms per pass (%.2f%%)\n",
		len(tracedWalls), median(tracedWalls), len(plain), median(plain), overhead*1e3, 100*ratio(overhead, median(plain)))
	fmt.Printf("per-layer self times + other_ms = %.3f ms; traced setup + traced pass wall = %.3f ms; gap %.3f%% (tolerance %.0f%%)\n",
		ms(sum), ms(accounted), 100*gap, 100*sumTolerance)
	if gap > sumTolerance || gap < -sumTolerance {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("per-layer sum is %.3f%% off the traced wall time", 100*gap))
	}
	fmt.Printf("%-22s %12s %12s\n", "layer", "setup ms", "pass ms")
	for _, l := range append(layerNames, "setup", "pass") {
		fmt.Printf("%-22s %12.3f %12.3f\n", l, ms(setupSelf[l]), ms(passSelf[l]/n))
	}
	printMetrics(m)
	return result{Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// layerNames lists the layer spans, one per call into a module.
var layerNames = []string{
	"core.new", "core.run", "core.replay", "mem.image", "risc.run",
	"obs.finalize", "obs.cpistack", "lint.analyze", "lint.bound",
	"asm.assemble", "minc.compile", "workload.build", "trace.record",
	"exec.interp", "runledger.begin", "runledger.append",
}

// sameSimulation reports whether two passes simulated identically; the
// traced pass alone counts steps and observer events.
func sameSimulation(a, b counts) bool {
	a.coreSteps, a.skipJumps, a.obsEvents = b.coreSteps, b.skipJumps, b.obsEvents
	return a == b
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-22s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Print(b.String())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
