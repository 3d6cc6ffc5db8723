package obs

import (
	"fmt"
	"io"
	"sort"

	"hirata/internal/asm"
)

// Profile is a snapshot of the per-PC hotspot attribution: how often each
// static instruction issued, how long it kept functional units busy, and
// how many decode-stall cycles it caused while heading the D2 window.
type Profile struct {
	PCs []PCStat // sorted by PC
	// TotalIssues is Σ PCs.Issues; with the collector attached for the
	// whole run it equals Result.Instructions.
	TotalIssues uint64
	TotalBusy   uint64
	TotalStalls uint64
	// Dropped counts ring-buffer drops (0 without a ring). The profile
	// itself aggregates incrementally and stays exact; the field surfaces
	// that event-replay views (Chrome trace, critical path) of the same
	// run are truncated.
	Dropped uint64
}

// Profile snapshots the collector's per-PC attribution: one row per pc
// that issued, selected, completed or was charged a stall, in pc order.
func (c *Collector) Profile() Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Profile{Dropped: c.dropped}
	for pc, st := range c.profile {
		if st.Issues == 0 && st.Selects == 0 && st.Completes == 0 && st.StallCycles == 0 {
			continue
		}
		st.PC = int64(pc)
		p.PCs = append(p.PCs, st)
		p.TotalIssues += st.Issues
		p.TotalBusy += st.BusyCycles
		p.TotalStalls += st.StallCycles
	}
	return p
}

// AttributedIssues returns how many issued instructions map to a known
// source line of prog (the acceptance metric for source-level
// attribution). With a nil program it counts every profiled pc.
func (p Profile) AttributedIssues(prog *asm.Program) uint64 {
	var n uint64
	for _, st := range p.PCs {
		if prog == nil || prog.Line(int(st.PC)) > 0 {
			n += st.Issues
		}
	}
	return n
}

// WriteAnnotated renders the profile as a perf-annotate-style report: the
// static program in pc order, each instruction annotated with its share of
// dynamic issues, functional-unit busy cycles, average result latency and
// attributed stall cycles. prog supplies the source-line map and may be
// nil (trace-driven replays profile by stream position instead of pc).
func (p Profile) WriteAnnotated(w io.Writer, prog *asm.Program) error {
	if _, err := fmt.Fprintf(w, "hotspot profile: %d issues, %d unit-busy cycles, %d stall cycles attributed\n",
		p.TotalIssues, p.TotalBusy, p.TotalStalls); err != nil {
		return err
	}
	if p.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "warning: event ring dropped %d events; this profile is exact, but timeline and critical-path views are truncated\n",
			p.Dropped); err != nil {
			return err
		}
	}
	if len(p.PCs) == 0 {
		_, err := fmt.Fprintln(w, "  (no events collected)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s %7s %8s %8s %7s %5s %5s  %s\n",
		"issues", "issue%", "busy", "stall", "avg-lat", "line", "pc", "instruction"); err != nil {
		return err
	}
	for _, st := range p.PCs {
		pct := 0.0
		if p.TotalIssues > 0 {
			pct = 100 * float64(st.Issues) / float64(p.TotalIssues)
		}
		avgLat := "-"
		if st.Selects > 0 {
			avgLat = fmt.Sprintf("%.1f", float64(st.LatencyCycles)/float64(st.Selects))
		}
		line := "-"
		if prog != nil {
			if l := prog.Line(int(st.PC)); l > 0 {
				line = fmt.Sprintf("%d", l)
			}
		}
		marker := " "
		if pct >= 10 {
			marker = "*" // hotspot: ≥10% of dynamic issues
		}
		if _, err := fmt.Fprintf(w, "%s%7d %6.1f%% %8d %8d %7s %5s %5d  %s\n",
			marker, st.Issues, pct, st.BusyCycles, st.StallCycles, avgLat, line, st.PC, st.Ins); err != nil {
			return err
		}
	}
	return nil
}

// Hottest returns the n profile rows with the most dynamic issues,
// descending (ties broken by pc for determinism).
func (p Profile) Hottest(n int) []PCStat {
	rows := append([]PCStat(nil), p.PCs...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Issues != rows[j].Issues {
			return rows[i].Issues > rows[j].Issues
		}
		return rows[i].PC < rows[j].PC
	})
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n]
}
