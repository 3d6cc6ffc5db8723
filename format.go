package hirata

import (
	"fmt"
	"strings"

	"hirata/internal/sched"
)

// FormatTable2 renders Table 2 with paper-vs-measured speed-ups.
func FormatTable2(t *Table2) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: speed-up by parallel multithreading (ray tracing)\n")
	fmt.Fprintf(&b, "sequential baseline: %d cycles (1 ls unit), %d cycles (2 ls units)\n",
		t.BaselineCycle[1], t.BaselineCycle[2])
	fmt.Fprintf(&b, "%-6s | %-17s | %-17s | %-17s | %-17s\n", "", "1 ls, no standby", "1 ls, standby", "2 ls, no standby", "2 ls, standby")
	fmt.Fprintf(&b, "%-6s | %-8s %-8s | %-8s %-8s | %-8s %-8s | %-8s %-8s\n",
		"slots", "paper", "ours", "paper", "ours", "paper", "ours", "paper", "ours")
	for _, slots := range t.Config.Slots {
		fmt.Fprintf(&b, "%-6d", slots)
		for _, ls := range []int{1, 2} {
			for _, sb := range []bool{false, true} {
				cell, ok := t.Cell(slots, ls, sb)
				if !ok {
					fmt.Fprintf(&b, " | %-8s %-8s", "-", "-")
					continue
				}
				fmt.Fprintf(&b, " | %-8s %-8.2f", paperStr(PaperTable2(slots, ls, sb)), cell.Speedup)
			}
		}
		b.WriteByte('\n')
	}
	// Busiest-unit utilization (§3.2's saturation explanation).
	for _, slots := range t.Config.Slots {
		if cell, ok := t.Cell(slots, 1, true); ok {
			fmt.Fprintf(&b, "busiest unit at %d slots, 1 ls: %s at %.0f%%\n",
				slots, cell.BusiestClass, cell.BusiestUtil)
		}
	}
	return b.String()
}

// FormatTable3 renders Table 3's (D,S) grid.
func FormatTable3(t *Table3) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: speed-up vs employed parallelism (D = issue width, S = thread slots)\n")
	fmt.Fprintf(&b, "sequential baseline: %d cycles (8 functional units)\n", t.BaselineCycle)
	fmt.Fprintf(&b, "%-8s | %-8s | %-8s | %-8s\n", "D x S", "paper", "ours", "cycles")
	for _, c := range t.Cells {
		fmt.Fprintf(&b, "(%d,%d)%-3s | %-8s | %-8.2f | %d\n",
			c.IssueWidth, c.Slots, "", paperStr(PaperTable3(c.IssueWidth, c.Slots)), c.Speedup, c.Cycles)
	}
	return b.String()
}

// FormatTable4 renders the static-scheduling comparison.
func FormatTable4(t *Table4) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: static code scheduling, Livermore Kernel 1 (cycles per iteration)\n")
	fmt.Fprintf(&b, "bound = static lower bound per iteration (docs/LINT.md, \"Static performance bounds\")\n")
	fmt.Fprintf(&b, "%-6s | %-26s | %-26s | %-26s\n", "", "non-optimized", "strategy A", "strategy B")
	fmt.Fprintf(&b, "%-6s | %-8s %-8s %-8s | %-8s %-8s %-8s | %-8s %-8s %-8s\n",
		"slots", "paper", "ours", "bound", "paper", "ours", "bound", "paper", "ours", "bound")
	for _, slots := range t.Config.Slots {
		fmt.Fprintf(&b, "%-6d", slots)
		for _, strat := range []Strategy{sched.None, sched.StrategyA, sched.StrategyB} {
			cell, ok := t.Cell(slots, strat)
			if !ok {
				fmt.Fprintf(&b, " | %-8s %-8s %-8s", "-", "-", "-")
				continue
			}
			bound := "-"
			if cell.StaticBound > 0 {
				bound = fmt.Sprintf("%.2f", float64(cell.StaticBound)/float64(t.Config.N))
			}
			fmt.Fprintf(&b, " | %-8s %-8.2f %-8s",
				paperStr(PaperTable4(slots, strat)), cell.CyclesPerIter, bound)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTable5 renders the eager-execution evaluation.
func FormatTable5(t *Table5) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: eager execution of sequential loop iterations (cycles per iteration)\n")
	fmt.Fprintf(&b, "sequential: paper %.0f, ours %.2f (%d cycles / %d iterations)\n",
		PaperTable5Sequential, t.SequentialPerIt, t.SequentialCycles, t.Config.Nodes)
	fmt.Fprintf(&b, "%-6s | %-10s | %-10s | %-10s\n", "slots", "paper", "ours", "speed-up")
	for _, c := range t.Cells {
		fmt.Fprintf(&b, "%-6d | %-10s | %-10.2f | %.2f\n",
			c.Slots, paperStr(PaperTable5(c.Slots)), c.CyclesPerIter, c.Speedup)
	}
	fmt.Fprintf(&b, "paper's asymptotic speed-up: 56/17 = 3.29\n")
	return b.String()
}

// FormatRotationSweep renders the rotation-interval experiment.
func FormatRotationSweep(cells []RotationSweepCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rotation-interval sweep (§3.2: little influence; 8-16 slightly superior)\n")
	fmt.Fprintf(&b, "%-10s | %-10s | %-10s\n", "interval", "cycles", "speed-up")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10d | %-10d | %.3f\n", c.Interval, c.Cycles, c.Speedup)
	}
	return b.String()
}

// FormatPrivateICache renders the private-instruction-cache variant.
func FormatPrivateICache(cells []PrivateICacheCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Private per-slot instruction caches (§3.2: paper saw 1.79->1.80, 5.79->5.80)\n")
	fmt.Fprintf(&b, "%-24s | %-10s | %-10s\n", "configuration", "shared", "private")
	for _, c := range cells {
		fmt.Fprintf(&b, "%d slots, %d ls, standby=%-5v | %-10.2f | %-10.2f\n",
			c.Slots, c.LoadStoreUnits, c.Standby, c.SharedSpeedup, c.PrivateSpeedup)
	}
	return b.String()
}

// FormatUtilization renders the functional-unit utilization report.
func FormatUtilization(res MTResult, slots, lsUnits int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Functional-unit utilization, %d slots, %d load/store unit(s), %d cycles\n",
		slots, lsUnits, res.Cycles)
	for _, u := range res.Units {
		fmt.Fprintf(&b, "%-10s[%d]: N=%-9d U=%5.1f%%\n",
			u.Class, u.Index, u.Invocations, u.Utilization(res.Cycles))
	}
	return b.String()
}

// FormatFiniteCache renders the finite-cache extension sweep.
func FormatFiniteCache(cells []FiniteCacheCell, slots int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Finite data-cache sweep, %d slots (paper future work)\n", slots)
	fmt.Fprintf(&b, "%-10s | %-10s | %-14s\n", "lines", "cycles", "vs perfect")
	for _, c := range cells {
		name := fmt.Sprintf("%d", c.Lines)
		if c.Lines == 0 {
			name = "perfect"
		}
		fmt.Fprintf(&b, "%-10s | %-10d | %.3f\n", name, c.Cycles, c.Speedup)
	}
	return b.String()
}

// FormatQueueDepth renders the queue-register-depth ablation.
func FormatQueueDepth(cells []QueueDepthCell, slots int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Queue-register depth ablation, eager while loop, %d slots\n", slots)
	fmt.Fprintf(&b, "%-8s | %-14s\n", "depth", "cycles/iter")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-8d | %.2f\n", c.Depth, c.CyclesPerIter)
	}
	return b.String()
}

// FormatConcurrentMT renders the context-switching experiment.
func FormatConcurrentMT(cells []ConcurrentMTCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent multithreading: remote loads on one thread slot (§2.1.3)\n")
	fmt.Fprintf(&b, "%-26s | %-10s | %-10s\n", "configuration", "cycles", "switches")
	for _, c := range cells {
		name := fmt.Sprintf("%d frames", c.ContextFrames)
		if c.Suppressed {
			name = "switching suppressed"
		}
		fmt.Fprintf(&b, "%-26s | %-10d | %d\n", name, c.Cycles, c.Switches)
	}
	return b.String()
}

// FormatIssueBandwidth renders the §4-related-work comparison.
func FormatIssueBandwidth(cells []IssueBandwidthCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simultaneous issue vs single-issue multithreading (§4 precursors: HEP, Farrens & Pleszkun)\n")
	fmt.Fprintf(&b, "%-6s | %-22s | %-22s\n", "slots", "simultaneous speed-up", "single-issue speed-up")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-6d | %-22.2f | %-22.2f\n", c.Slots, c.Simultaneous, c.SingleIssue)
	}
	return b.String()
}

// FormatDoacross renders the queue-register doacross experiment.
func FormatDoacross(cells []DoacrossCell, seqCycles uint64, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Doacross loop through queue registers (Livermore Kernel 5, first-order recurrence)\n")
	fmt.Fprintf(&b, "sequential: %d cycles (%.2f cycles/iter over %d iterations)\n",
		seqCycles, float64(seqCycles)/float64(n), n)
	fmt.Fprintf(&b, "%-6s | %-12s | %-10s\n", "slots", "cycles/iter", "speed-up")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-6d | %-12.2f | %.2f\n", c.Slots, c.CyclesPerIter, c.Speedup)
	}
	return b.String()
}

// FormatSWPAblation renders the strategy-B vs software-pipelining contrast.
func FormatSWPAblation(cells []SWPAblationCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strategy B vs software pipelining on LK1 (§2.3.2: standby stations avoid NOP padding)\n")
	fmt.Fprintf(&b, "%-6s | %-20s | %-12s | %-10s\n", "slots", "scheduler", "cycles/iter", "code size")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-6d | %-20s | %-12.2f | %d\n", c.Slots, c.Strategy, c.CyclesPerIter, c.CodeSize)
	}
	return b.String()
}

func paperStr(v float64) string {
	if v == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// FormatStandbyDepth renders the standby-station depth ablation.
func FormatStandbyDepth(cells []StandbyDepthCell, slots int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Standby-station depth ablation, %d slots, 1 ls unit (paper: depth-1 latches)\n", slots)
	fmt.Fprintf(&b, "%-8s | %-10s | %-10s\n", "depth", "cycles", "speed-up")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-8d | %-10d | %.2f\n", c.Depth, c.Cycles, c.Speedup)
	}
	return b.String()
}

// FormatUnroll renders the loop-unrolling ablation.
func FormatUnroll(cells []UnrollCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Loop unrolling x static scheduling on LK1 (cycles per iteration, strategy A)\n")
	fmt.Fprintf(&b, "%-6s | %-8s | %-14s\n", "slots", "unroll", "cycles/iter")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-6d | %-8d | %.2f\n", c.Slots, c.Unroll, c.CyclesPerIter)
	}
	return b.String()
}

// FormatSpeedupCurveCSV renders the slots sweep as CSV for plotting.
func FormatSpeedupCurveCSV(cells []CurveCell) string {
	var b strings.Builder
	b.WriteString("slots,speedup_1ls,speedup_2ls\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%d,%.4f,%.4f\n", c.Slots, c.SpeedupL1, c.SpeedupL2)
	}
	return b.String()
}

// FormatBranchHiding renders the branch-delay-hiding experiment.
func FormatBranchHiding(cells []BranchHidingCell, seqCycles uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Branch-delay hiding (§2.1.2): Collatz step counts, one branch every ~4 instructions\n")
	fmt.Fprintf(&b, "sequential baseline: %d cycles. With many branchy threads the shared fetch\n", seqCycles)
	b.WriteString("unit itself saturates on refetches; private fetch units (last column) are the\n")
	b.WriteString("remedy the paper anticipates (\"another cache and fetch unit would be needed\").\n")
	fmt.Fprintf(&b, "%-6s | %-10s | %-10s | %-12s | %-12s | %-14s\n", "slots", "cycles", "speed-up", "eff/thread", "2 fetch units", "private fetch")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-6d | %-10d | %-10.2f | %-12.2f | %-12.2f | %.2f\n",
			c.Slots, c.Cycles, c.Speedup, c.PerThreadEff, c.TwoFetch, c.PrivateSpeedup)
	}
	return b.String()
}
