package hirata

import (
	"hirata/internal/core"
	"hirata/internal/isa"
)

// Table2Config parameterises the parallel-multithreading speed-up study
// (paper §3.2, Table 2).
type Table2Config struct {
	Workload RayTraceConfig
	// Slots lists the thread-slot counts (paper: 2, 4, 8).
	Slots []int
	// RotationInterval for the instruction schedule units (paper: 8).
	RotationInterval int
	// PrivateICache runs the per-slot instruction cache variant.
	PrivateICache bool
}

func (c Table2Config) withDefaults() Table2Config {
	if len(c.Slots) == 0 {
		c.Slots = []int{2, 4, 8}
	}
	if c.RotationInterval <= 0 {
		c.RotationInterval = core.DefaultRotationInterval
	}
	return c
}

// Table2Cell is one measurement of Table 2.
type Table2Cell struct {
	Slots          int
	LoadStoreUnits int
	Standby        bool
	Cycles         uint64
	Speedup        float64 // vs sequential execution on the baseline RISC
	BusiestClass   isa.UnitClass
	BusiestUtil    float64 // percent
}

// Table2 is the full reproduction of Table 2.
type Table2 struct {
	Config        Table2Config
	BaselineCycle [3]uint64 // sequential cycles, indexed by load/store units (1, 2)
	Cells         []Table2Cell
}

// Cell returns the measurement for a configuration.
func (t *Table2) Cell(slots, lsUnits int, standby bool) (Table2Cell, bool) {
	for _, c := range t.Cells {
		if c.Slots == slots && c.LoadStoreUnits == lsUnits && c.Standby == standby {
			return c, true
		}
	}
	return Table2Cell{}, false
}

// RunTable2 reproduces Table 2: speed-up of 2/4/8 thread slots over
// sequential execution, with one or two load/store units, with and without
// standby stations.
func RunTable2(cfg Table2Config) (*Table2, error) {
	cfg = cfg.withDefaults()
	rt, err := BuildRayTrace(cfg.Workload)
	if err != nil {
		return nil, err
	}
	cells := table2Cells(rt, cfg)
	res, err := runGrid(append([]cell{seqCell(rt, rt.Seq, 1), seqCell(rt, rt.Seq, 2)}, cells...))
	if err != nil {
		return nil, err
	}
	out := &Table2{Config: cfg}
	out.BaselineCycle[1], out.BaselineCycle[2] = res[0].Cycles, res[1].Cycles
	for i, c := range cells {
		r := res[2+i]
		busiest := r.BusiestUnit()
		out.Cells = append(out.Cells, Table2Cell{
			Slots:          c.cfg.ThreadSlots,
			LoadStoreUnits: c.cfg.LoadStoreUnits,
			Standby:        c.cfg.StandbyStations,
			Cycles:         r.Cycles,
			Speedup:        ratio(out.BaselineCycle[c.cfg.LoadStoreUnits], r.Cycles),
			BusiestClass:   busiest.Class,
			BusiestUtil:    busiest.Utilization(r.Cycles),
		})
	}
	return out, nil
}

// table2Cells returns Table 2's multithreaded cells: the parallel ray
// tracer on each slot count, with one and two load/store units, without
// and with standby stations.
func table2Cells(rt *RayTrace, cfg Table2Config) []cell {
	var cells []cell
	for _, slots := range cfg.Slots {
		for _, ls := range []int{1, 2} {
			for _, standby := range []bool{false, true} {
				cells = append(cells, parCell(rt, rt.Par, MTConfig{
					ThreadSlots:      slots,
					LoadStoreUnits:   ls,
					StandbyStations:  standby,
					RotationInterval: cfg.RotationInterval,
					PrivateICache:    cfg.PrivateICache,
				}))
			}
		}
	}
	return cells
}

// Table3Config parameterises the hybrid superscalar × multithreading study
// (paper §3.3, Table 3): (D,S)-processors with D·S instruction issue slots
// and eight functional units.
type Table3Config struct {
	Workload RayTraceConfig
	// Products lists the D·S budgets to sweep (paper: 2, 4, 8).
	Products []int
}

func (c Table3Config) withDefaults() Table3Config {
	if len(c.Products) == 0 {
		c.Products = []int{2, 4, 8}
	}
	return c
}

// Table3Cell is one (D,S) measurement.
type Table3Cell struct {
	IssueWidth int // D
	Slots      int // S
	Cycles     uint64
	Speedup    float64
}

// Table3 is the full reproduction of Table 3.
type Table3 struct {
	Config        Table3Config
	BaselineCycle uint64
	Cells         []Table3Cell
}

// Cell returns the (D,S) measurement.
func (t *Table3) Cell(d, s int) (Table3Cell, bool) {
	for _, c := range t.Cells {
		if c.IssueWidth == d && c.Slots == s {
			return c, true
		}
	}
	return Table3Cell{}, false
}

// RunTable3 reproduces Table 3. All processors use two load/store units
// (eight functional units) and standby stations; the baseline is the
// sequential RISC machine with the same unit complement.
func RunTable3(cfg Table3Config) (*Table3, error) {
	cfg = cfg.withDefaults()
	rt, err := BuildRayTrace(cfg.Workload)
	if err != nil {
		return nil, err
	}
	cells := table3Cells(rt, cfg.Products)
	res, err := runGrid(append([]cell{seqCell(rt, rt.Seq, 2)}, cells...))
	if err != nil {
		return nil, err
	}
	out := &Table3{Config: cfg, BaselineCycle: res[0].Cycles}
	for i, c := range cells {
		out.Cells = append(out.Cells, Table3Cell{
			IssueWidth: c.cfg.IssueWidth,
			Slots:      c.cfg.ThreadSlots,
			Cycles:     res[1+i].Cycles,
			Speedup:    ratio(out.BaselineCycle, res[1+i].Cycles),
		})
	}
	return out, nil
}

// table3Cells returns Table 3's multithreaded cells: the parallel ray
// tracer on every (D,S) processor with D·S in products.
func table3Cells(rt *RayTrace, products []int) []cell {
	var cells []cell
	for _, prod := range products {
		for d := 1; d <= prod; d *= 2 {
			cells = append(cells, parCell(rt, rt.Par, MTConfig{
				ThreadSlots:     prod / d,
				LoadStoreUnits:  2,
				StandbyStations: true,
				IssueWidth:      d,
			}))
		}
	}
	return cells
}

// CurveCell is one point of the speed-up-versus-slots curve (Table 2's
// data as a dense sweep, suitable for plotting).
type CurveCell struct {
	Slots     int
	SpeedupL1 float64 // one load/store unit
	SpeedupL2 float64 // two load/store units
}

// RunSpeedupCurve sweeps thread slots 1..maxSlots with standby stations on.
func RunSpeedupCurve(w RayTraceConfig, maxSlots int) ([]CurveCell, error) {
	rt, err := BuildRayTrace(w)
	if err != nil {
		return nil, err
	}
	// Cells 0 and 1 are the baselines with one and two load/store units;
	// then each slot count on one and two load/store units.
	cells := []cell{seqCell(rt, rt.Seq, 1), seqCell(rt, rt.Seq, 2)}
	for s := 1; s <= maxSlots; s++ {
		for _, ls := range []int{1, 2} {
			cells = append(cells, parCell(rt, rt.Par, MTConfig{ThreadSlots: s, LoadStoreUnits: ls, StandbyStations: true}))
		}
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	var out []CurveCell
	for i := 2; i < len(cells); i += 2 {
		out = append(out, CurveCell{
			Slots:     cells[i].cfg.ThreadSlots,
			SpeedupL1: ratio(res[0].Cycles, res[i].Cycles),
			SpeedupL2: ratio(res[1].Cycles, res[i+1].Cycles),
		})
	}
	return out, nil
}
