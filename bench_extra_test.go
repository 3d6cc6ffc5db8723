package hirata

// Benchmarks for the extension experiments: the doacross recurrence, the
// software-pipelining contrast, the single-issue precursor comparison, and
// trace-driven replay.

import (
	"fmt"
	"testing"

	"hirata/internal/core"
)

// BenchmarkDoacross measures the queue-register doacross loop (LK5).
func BenchmarkDoacross(b *testing.B) {
	const n = 150
	rc, err := BuildRecurrence(RecurrenceConfig{N: n})
	if err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("S%d", slots), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := rc.NewMemory(rc.Par, slots)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunMT(core.Config{ThreadSlots: slots, StandbyStations: true}, rc.Par.Text, m)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(n), "cycles/iter")
		})
	}
}

// BenchmarkSWPAblation contrasts strategy B with NOP-padding software
// pipelining on LK1 (§2.3.2).
func BenchmarkSWPAblation(b *testing.B) {
	const n = 120
	for _, strat := range []Strategy{ScheduleStrategyB, ScheduleSWP} {
		b.Run(fmt.Sprintf("%s/S8", strat), func(b *testing.B) {
			lv, err := BuildLivermore(LivermoreConfig{N: n, Threads: 8, Strategy: strat, LoadStoreUnits: 1})
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := lv.Par.NewMemory(64)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunMT(core.Config{ThreadSlots: 8, LoadStoreUnits: 1, StandbyStations: true}, lv.Par.Text, m)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(n), "cycles/iter")
		})
	}
}

// BenchmarkIssueBandwidth contrasts simultaneous issue with the §4
// single-issue precursors.
func BenchmarkIssueBandwidth(b *testing.B) {
	rt := benchSetup(b)
	for _, cap := range []int{0, 1} {
		name := "simultaneous"
		if cap == 1 {
			name = "single-issue"
		}
		b.Run(name+"/S8", func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := rt.NewMemory(rt.Par, 8)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunMT(core.Config{
					ThreadSlots:      8,
					LoadStoreUnits:   2,
					StandbyStations:  true,
					MaxIssuePerCycle: cap,
				}, rt.Par.Text, m)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(benchBaseline[2])/float64(cycles), "speedup")
		})
	}
}

// BenchmarkTraceReplay measures trace-driven multiprogrammed throughput.
func BenchmarkTraceReplay(b *testing.B) {
	rt := benchSetup(b)
	m, err := rt.NewMemory(rt.Seq, 1)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := RecordTrace(rt.Seq.Text, m)
	if err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{2, 8} {
		b.Run(fmt.Sprintf("S%d", slots), func(b *testing.B) {
			traces := make([][]TraceRecord, slots)
			for i := range traces {
				traces[i] = recs
			}
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ReplayTraces(core.Config{
					ThreadSlots:     slots,
					LoadStoreUnits:  2,
					StandbyStations: true,
				}, traces, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkRadiosity measures the MinC-compiled radiosity gather.
func BenchmarkRadiosity(b *testing.B) {
	rd, err := BuildRadiosity(RadiosityConfig{Patches: 20, Sweeps: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{1, 8} {
		b.Run(fmt.Sprintf("S%d", slots), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := rd.NewMemory(slots)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunMT(core.Config{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true}, rd.Prog.Text, m)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkBranchHiding measures the branchy workload with shared vs
// private fetch units.
func BenchmarkBranchHiding(b *testing.B) {
	for _, private := range []bool{false, true} {
		name := "shared-fetch"
		if private {
			name = "private-fetch"
		}
		b.Run(name+"/S8", func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				cells, _, err := RunBranchHiding([]int{8})
				if err != nil {
					b.Fatal(err)
				}
				if private {
					sp = cells[0].PrivateSpeedup
				} else {
					sp = cells[0].Speedup
				}
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}
