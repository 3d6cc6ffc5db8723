package hirata

import (
	"fmt"
	"strings"
)

// MultiprogramCell is one measurement of heterogeneous multiprogrammed
// throughput: several different programs' traces replayed simultaneously.
type MultiprogramCell struct {
	Slots        int
	Cycles       uint64
	SerialRISC   uint64  // the same jobs run back to back on the baseline
	Throughput   float64 // serial / multithreaded
	Instructions uint64
}

// RunMultiprogram records traces of three unrelated jobs (a ray-tracing
// slice, a Livermore Kernel 1 loop and a linked-list traversal), then
// replays one trace per thread slot, cycling through the job mix. It
// reports the throughput gain over running the jobs sequentially on the
// baseline RISC machine — the multiprogramming view of the paper's
// throughput argument (§1: the processor is meant as an element of a
// multiprocessor running many independent threads).
func RunMultiprogram(slots []int) ([]MultiprogramCell, error) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 24, Spheres: 8})
	if err != nil {
		return nil, err
	}
	lv, err := BuildLivermore(LivermoreConfig{N: 120})
	if err != nil {
		return nil, err
	}
	ll, err := BuildLinkedList(LinkedListConfig{Nodes: 100, BreakAt: -1})
	if err != nil {
		return nil, err
	}
	// The jobs' baselines are the grid's first cells; each job's trace is
	// recorded from the same program and memory.
	cells := []cell{
		seqCell(rt, rt.Seq, 2),
		riscCell(lv.Seq.Text, func() (*Memory, error) { return lv.Seq.NewMemory(64) }, 2),
		seqCell(ll, ll.Seq, 2),
	}
	jobs := len(cells)
	recs := make([][]TraceRecord, jobs)
	for i, c := range cells {
		m, err := c.mem()
		if err != nil {
			return nil, err
		}
		if recs[i], err = RecordTrace(c.text, m); err != nil {
			return nil, err
		}
	}
	// Then one replay per slot count, thread i replaying job i mod 3.
	for _, s := range slots {
		traces := make([][]TraceRecord, s)
		for i := range traces {
			traces[i] = recs[i%jobs]
		}
		cells = append(cells, cell{cfg: MTConfig{ThreadSlots: s, LoadStoreUnits: 2, StandbyStations: true}, traces: traces})
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []MultiprogramCell
	for i, s := range slots {
		r := res[jobs+i]
		var serial uint64
		for t := 0; t < s; t++ {
			serial += res[t%jobs].Cycles
		}
		out = append(out, MultiprogramCell{
			Slots:        s,
			Cycles:       r.Cycles,
			SerialRISC:   serial,
			Throughput:   ratio(serial, r.Cycles),
			Instructions: r.Instructions,
		})
	}
	return out, nil
}

// FormatMultiprogram renders the multiprogramming experiment.
func FormatMultiprogram(cells []MultiprogramCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Heterogeneous multiprogramming (trace replay: raytrace + LK1 + list walk)\n")
	fmt.Fprintf(&b, "%-6s | %-12s | %-14s | %-10s\n", "slots", "cycles", "serial (risc)", "throughput")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-6d | %-12d | %-14d | %.2fx\n", c.Slots, c.Cycles, c.SerialRISC, c.Throughput)
	}
	return b.String()
}
