package hirata

// Host self-observability guards: the profiled simulator must stay within a
// few percent of the unprofiled one at the default sampling rate, and
// attaching the profiler or sweep telemetry must not change any simulated
// result or report byte (the probe observes the cycle loop, it never
// steers it). See docs/OBSERVABILITY.md, "Host-level observability".

import (
	"testing"
	"time"

	"hirata/internal/core"
)

// BenchmarkSimulatorThroughputSelfProfile is BenchmarkSimulatorThroughput
// with the host profiler attached at the default 1/128 sampling. Run beside
// it (make bench runs both), a self-profiling overhead regression shows up
// as a widening gap between the two.
func BenchmarkSimulatorThroughputSelfProfile(b *testing.B) {
	rt := benchSetup(b)
	cfg := core.Config{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true}
	m, err := rt.NewMemory(rt.Par, 8)
	if err != nil {
		b.Fatal(err)
	}
	res, err := RunMT(cfg, rt.Par.Text, m)
	if err != nil {
		b.Fatal(err)
	}
	simCycles := res.Cycles
	prof := NewHostProfiler(HostProfilerOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := rt.NewMemory(rt.Par, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(cfg, rt.Par.Text, m, RunOptions{Host: prof}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(simCycles)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// TestSelfProfileOverheadWithinBudget asserts the enabled-path cost: at the
// default sampling rate the profiled run must stay within 5% of the plain
// run. Plain and profiled runs are tightly interleaved (plain, profiled,
// plain, ...) so a load burst on a shared runner inflates both sides
// instead of just one, and each side is reduced to its best (minimum) —
// scheduler noise only ever adds time. The interleaving also yields a
// control: two independent best-of-N estimates of the *same* plain run.
// When those disagree by more than 3%, the host cannot resolve a 5%
// budget and the test skips rather than fail on noise; the two throughput
// benchmarks show the gap where a flaky gate cannot.
func TestSelfProfileOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 48, Spheres: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true}
	once := func(prof *HostProfiler) time.Duration {
		m, err := rt.NewMemory(rt.Par, cfg.ThreadSlots)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := Run(cfg, rt.Par.Text, m, RunOptions{Host: prof}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	best := func(a, b time.Duration) time.Duration {
		if a < b {
			return a
		}
		return b
	}
	once(nil) // warm caches before the measured attempts
	const reps = 8
	for attempt := 0; attempt < 3; attempt++ {
		huge := time.Duration(1<<63 - 1)
		plainA, profiled, plainB := huge, huge, huge
		for i := 0; i < reps; i++ {
			plainA = best(plainA, once(nil))
			profiled = best(profiled, once(NewHostProfiler(HostProfilerOptions{})))
			plainB = best(plainB, once(nil))
		}
		plain := best(plainA, plainB)
		if float64(profiled) <= float64(plain)*1.05 {
			return
		}
		control := float64(plainA) / float64(plainB)
		if control < 1 {
			control = 1 / control
		}
		if control > 1.03 {
			continue // measurement can't resolve the budget; try again
		}
		if attempt == 2 {
			t.Fatalf("self-profiling overhead %0.1f%% exceeds the 5%% budget (plain %v, profiled %v, control gap %0.1f%%)",
				(float64(profiled)/float64(plain)-1)*100, plain, profiled, (control-1)*100)
		}
	}
	t.Skip("host too noisy to assert a 5% budget: plain-vs-plain control exceeded 3% on every attempt")
}

// TestSelfProfileReportBytesUnchanged is the differential guard for the
// sweep side: running an experiment with sweep telemetry and a profiled
// representative run must reproduce the exact bytes an uninstrumented run
// produces.
func TestSelfProfileReportBytesUnchanged(t *testing.T) {
	rt := RayTraceConfig{Rays: 24, Spheres: 4}
	render := func(instrument bool) string {
		if instrument {
			SetSweepTelemetry(NewSweepRecorder())
			defer SetSweepTelemetry(nil)
		}
		cells, err := RunSpeedupCurve(rt, 8)
		if err != nil {
			t.Fatal(err)
		}
		return FormatSpeedupCurveCSV(cells)
	}
	plain := render(false)
	instrumented := render(true)
	if plain != instrumented {
		t.Errorf("sweep telemetry changed the speed-up curve:\nplain:\n%s\ninstrumented:\n%s", plain, instrumented)
	}
}
