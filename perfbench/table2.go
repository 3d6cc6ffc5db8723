package main

import (
	"fmt"
	"math"

	"hirata"
	"hirata/internal/core"
	"hirata/internal/lint"
	"hirata/internal/risc"
	"hirata/internal/trace"
	"hirata/internal/workload"
)

// The table2 workload runs the paper's Table 2 grid on one seeded
// ray-trace scene: S∈{2,4,8} × LS∈{1,2} × standby on/off, the two
// sequential RISC baselines, and trace-driven replays of the recorded
// sequential trace at S∈{2,4,8}. Everything runs bare: no observer, no
// ledger.
const (
	table2Scenes  = 32 // recorded scenes; the seed picks one
	table2Rays    = 96
	table2Spheres = 12
)

var table2Slots = []int{2, 4, 8}

type table2 struct {
	scene    int
	rt       *workload.RayTrace
	seqTrace []core.TraceInput
	seqFinal string      // final memory of the sequential program on the interpreter
	bound    lint.Bounds // static lower bound for the 8-slot, 2-LS cells
}

func newTable2(seed int64) *table2 { return &table2{scene: int(uint64(seed) % table2Scenes)} }

func (w *table2) setup(e *env) error {
	s := e.tr.begin("workload.build")
	rt, err := workload.BuildRayTrace(workload.RayTraceConfig{
		Rays: table2Rays, Spheres: table2Spheres, Seed: int64(w.scene) + 1,
	})
	e.tr.end(s)
	if err != nil {
		return err
	}
	w.rt = rt

	s = e.tr.begin("mem.image")
	m, err := rt.NewMemory(rt.Seq, 1)
	e.tr.end(s)
	if err != nil {
		return err
	}
	s = e.tr.begin("trace.record")
	recs, err := trace.RecordProgram(rt.Seq.Text, m, 0)
	if err == nil {
		w.seqTrace = make([]core.TraceInput, len(recs))
		for i, r := range recs {
			w.seqTrace[i] = core.TraceInput{Ins: r.Ins, Addr: r.Addr}
		}
	}
	e.tr.end(s)
	if err != nil {
		return err
	}
	w.seqFinal = memDigest(m)

	s = e.tr.begin("lint.analyze")
	ds := lint.AnalyzeProgram(rt.Par, lint.Config{InterThread: true, ThreadSlots: 8, MemWords: m.Size()})
	e.tr.end(s)
	if err := lintClean(ds); err != nil {
		return err
	}
	s = e.tr.begin("lint.bound")
	w.bound = hirata.StaticBounds(core.Config{ThreadSlots: 8, LoadStoreUnits: 2}, rt.Par.Text)
	e.tr.end(s)
	return nil
}

func (w *table2) key(format string, args ...any) string {
	return fmt.Sprintf("table2/scene=%d/", w.scene) + fmt.Sprintf(format, args...)
}

func (w *table2) pass(e *env) {
	var baseline [3]uint64
	for ls := 1; ls <= 2; ls++ {
		key := w.key("risc/ls=%d", ls)
		e.job(key, func() error {
			s := e.tr.begin("mem.image")
			m, err := w.rt.NewMemory(w.rt.Seq, 1)
			e.tr.end(s)
			if err != nil {
				return err
			}
			res, err := e.runRISC(risc.Config{LoadStoreUnits: ls, MaxCycles: e.maxCycles(key)}, w.rt.Seq.Text, m)
			if err != nil {
				return err
			}
			got := outcome{Cycles: res.Cycles, Instr: res.Instructions, Mem: memDigest(m)}
			if got.Mem != w.seqFinal {
				return fmt.Errorf("final memory differs from the functional interpreter's")
			}
			baseline[ls] = res.Cycles
			return e.check(key, got)
		})
	}

	worst := 0.0
	for _, slots := range table2Slots {
		for ls := 1; ls <= 2; ls++ {
			for _, standby := range []bool{false, true} {
				key := w.key("mt/s=%d/ls=%d/sb=%t", slots, ls, standby)
				e.job(key, func() error {
					s := e.tr.begin("mem.image")
					m, err := w.rt.NewMemory(w.rt.Par, slots)
					e.tr.end(s)
					if err != nil {
						return err
					}
					cfg := core.Config{ThreadSlots: slots, LoadStoreUnits: ls, StandbyStations: standby, MaxCycles: e.maxCycles(key)}
					res, err := e.runCore(cfg, w.rt.Par.Text, m, nil, nil)
					if err != nil {
						return err
					}
					if slots == 8 && ls == 2 {
						if err := e.checkBound(w.bound, res.Cycles); err != nil {
							return err
						}
					}
					if baseline[ls] > 0 {
						paper := hirata.PaperTable2(slots, ls, standby)
						speedup := float64(baseline[ls]) / float64(res.Cycles)
						worst = math.Max(worst, 100*math.Abs(speedup-paper)/paper)
					}
					return e.check(key, outcome{Cycles: res.Cycles, Instr: res.Instructions, Mem: memDigest(m)})
				})
			}
		}
	}
	e.c.paperErrPct = worst

	for _, slots := range table2Slots {
		key := w.key("replay/s=%d", slots)
		e.job(key, func() error {
			traces := make([][]core.TraceInput, slots)
			for i := range traces {
				traces[i] = w.seqTrace
			}
			cfg := core.Config{ThreadSlots: slots, LoadStoreUnits: 1, StandbyStations: true, MaxCycles: e.maxCycles(key)}
			res, err := e.replay(cfg, traces)
			if err != nil {
				return err
			}
			return e.check(key, outcome{Cycles: res.Cycles, Instr: res.Instructions})
		})
	}
}
