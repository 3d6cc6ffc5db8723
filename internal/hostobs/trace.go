package hostobs

import (
	"io"

	"hirata/internal/core"
	"hirata/internal/obs"
)

// Host Chrome-trace layout (obs.TraceWriter over the same streaming
// encoder as the pipeline traces; one trace microsecond = one host
// microsecond):
//
//	pid 1  "host cycle loop"   — tid 0: per-sampled-step phase slices;
//	                             skip-jump instants; ns/step + running-slots
//	                             counters
//	pid 2  "sweep workers"     — tid = worker id: one slice per cell;
//	                             pending-cells counter
const (
	hostLoopPID = 1
	sweepPID    = 2
	hostLoopCat = "hostloop"
	sweepCat    = "sweep"
	hostLoopTID = 0
)

// WriteHostTrace renders the profiler's sampled steps and the sweep
// recorder's worker timelines as one Chrome Trace Event JSON document
// (load in ui.perfetto.dev). Either argument may be nil.
func WriteHostTrace(w io.Writer, p *Profiler, rec *SweepRecorder) error {
	tw := obs.NewTraceWriter(w)
	if p != nil {
		writeLoopTrack(tw, p)
	}
	if rec != nil {
		writeSweepTrack(tw, rec)
	}
	return tw.Close()
}

func writeLoopTrack(tw *obs.TraceWriter, p *Profiler) {
	tw.ProcessName(hostLoopPID, "host cycle loop (sampled)")
	tw.ThreadName(hostLoopPID, hostLoopTID, "stepCycle phases")
	samples, skips := p.Samples()
	for _, s := range samples {
		ts := s.StartNs / 1000
		off := uint64(0)
		for ph := core.HostPhase(0); ph < core.NumHostPhases; ph++ {
			d := s.PhaseNs[ph]
			if d == 0 {
				continue
			}
			// Sub-microsecond phases still get a 1µs-wide slice (TraceWriter
			// widens zero durations); offsets accumulate in ns for fidelity.
			tw.Slice(hostLoopPID, hostLoopTID, ph.String(), hostLoopCat,
				ts+off/1000, d/1000, map[string]any{"cycle": s.Cycle, "ns": d})
			off += d
		}
		total := uint64(0)
		for _, d := range s.PhaseNs {
			total += d
		}
		tw.Counter(hostLoopPID, hostLoopTID, "step ns", ts, map[string]any{"ns": total})
		tw.Counter(hostLoopPID, hostLoopTID, "running slots", ts,
			map[string]any{"slots": s.RunningSlots})
	}
	for _, sk := range skips {
		tw.Instant(hostLoopPID, hostLoopTID, "skip jump", sk.AtNs/1000, "p",
			map[string]any{"from_cycle": sk.From, "to_cycle": sk.To, "skipped": sk.To - sk.From - 1})
	}
}

func writeSweepTrack(tw *obs.TraceWriter, rec *SweepRecorder) {
	spans, _, workers, _ := rec.Cells()
	tw.ProcessName(sweepPID, "sweep workers")
	for w := 0; w < workers; w++ {
		tw.ThreadName(sweepPID, w, "worker")
	}
	for _, c := range spans {
		name := "cell"
		tw.Slice(sweepPID, c.Worker, name, sweepCat, c.StartNs/1000, c.DurNs/1000,
			map[string]any{"cell": c.Cell, "pending": c.Pending, "failed": c.Failed})
		tw.Counter(sweepPID, 0, "cells pending", (c.StartNs+c.DurNs)/1000,
			map[string]any{"pending": c.Pending})
	}
}
