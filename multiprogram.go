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
	type job struct {
		name   string
		recs   []TraceRecord // shared by every slot replaying it
		cycles uint64        // baseline RISC cycles
	}

	// Phase 1: each job records its trace and runs its RISC baseline in an
	// independent sweep cell. build returns (program text, fresh memory).
	jobSpecs := []struct {
		name  string
		build func() ([]Instruction, func() (*Memory, error), error)
	}{
		{"raytrace", func() ([]Instruction, func() (*Memory, error), error) {
			rt, err := BuildRayTrace(RayTraceConfig{Rays: 24, Spheres: 8})
			if err != nil {
				return nil, nil, err
			}
			return rt.Seq.Text, func() (*Memory, error) { return rt.NewMemory(rt.Seq, 1) }, nil
		}},
		{"livermore", func() ([]Instruction, func() (*Memory, error), error) {
			lv, err := BuildLivermore(LivermoreConfig{N: 120})
			if err != nil {
				return nil, nil, err
			}
			return lv.Seq.Text, func() (*Memory, error) { return lv.Seq.NewMemory(64) }, nil
		}},
		{"linkedlist", func() ([]Instruction, func() (*Memory, error), error) {
			ll, err := BuildLinkedList(LinkedListConfig{Nodes: 100, BreakAt: -1})
			if err != nil {
				return nil, nil, err
			}
			return ll.Seq.Text, func() (*Memory, error) { return ll.NewMemory(ll.Seq, 1) }, nil
		}},
	}
	jobs, err := runCells(len(jobSpecs), func(i int) (job, error) {
		sp := jobSpecs[i]
		text, mkMem, err := sp.build()
		if err != nil {
			return job{}, err
		}
		mRec, err := mkMem()
		if err != nil {
			return job{}, err
		}
		recs, err := RecordTrace(text, mRec)
		if err != nil {
			return job{}, err
		}
		mBase, err := mkMem()
		if err != nil {
			return job{}, err
		}
		res, err := RunRISC(RISCConfig{LoadStoreUnits: 2}, text, mBase)
		if err != nil {
			return job{}, err
		}
		return job{sp.name, recs, res.Cycles}, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: one replay cell per slot count, each with its own processor.
	return runCells(len(slots), func(si int) (MultiprogramCell, error) {
		s := slots[si]
		traces := make([][]TraceRecord, s)
		var serial uint64
		for i := 0; i < s; i++ {
			j := jobs[i%len(jobs)]
			traces[i] = j.recs
			serial += j.cycles
		}
		res, err := ReplayTraces(MTConfig{
			ThreadSlots:     s,
			LoadStoreUnits:  2,
			StandbyStations: true,
		}, traces, RunOptions{})
		if err != nil {
			return MultiprogramCell{}, fmt.Errorf("multiprogram (%d slots): %w", s, err)
		}
		return MultiprogramCell{
			Slots:        s,
			Cycles:       res.Cycles,
			SerialRISC:   serial,
			Throughput:   float64(serial) / float64(res.Cycles),
			Instructions: res.Instructions,
		}, nil
	})
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
