package hirata

// Table4Config parameterises the static code scheduling study (paper §3.4,
// Table 4): Livermore Kernel 1 on a one-load/store-unit machine.
type Table4Config struct {
	N     int   // loop iterations (default 400)
	Slots []int // thread-slot counts (paper: 1..8)
}

func (c Table4Config) withDefaults() Table4Config {
	if c.N <= 0 {
		c.N = 400
	}
	if len(c.Slots) == 0 {
		c.Slots = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return c
}

// Table4Cell is one measurement: average execution cycles per iteration.
type Table4Cell struct {
	Slots         int
	Strategy      Strategy
	TotalCycles   uint64
	CyclesPerIter float64
	// StaticBound is the provable lower bound on TotalCycles for this
	// cell's scheduled program and machine shape (StaticBounds); the gap
	// to TotalCycles is the headroom the schedule left on the table.
	StaticBound uint64
}

// Table4 is the full reproduction of Table 4.
type Table4 struct {
	Config Table4Config
	Cells  []Table4Cell
}

// Cell returns the measurement for a slot count and strategy.
func (t *Table4) Cell(slots int, s Strategy) (Table4Cell, bool) {
	for _, c := range t.Cells {
		if c.Slots == slots && c.Strategy == s {
			return c, true
		}
	}
	return Table4Cell{}, false
}

// RunTable4 reproduces Table 4: cycles per iteration of Livermore Kernel 1
// under the three scheduling strategies, for 1..8 thread slots on a
// one-load/store-unit processor. The single-slot row executes the
// sequential loop; multi-slot rows execute the doall version in
// explicit-rotation mode with a change-priority instruction per iteration.
func RunTable4(cfg Table4Config) (*Table4, error) {
	cfg = cfg.withDefaults()
	out := &Table4{Config: cfg}
	var cells []cell
	for _, strat := range table4Strategies {
		for _, slots := range cfg.Slots {
			c, err := lk1Cell(cfg.N, slots, strat, 0)
			if err != nil {
				return nil, err
			}
			bound := uint64(0)
			if sb := StaticBounds(c.cfg, c.text); !sb.Unbounded {
				bound = uint64(sb.Bound)
			}
			cells = append(cells, c)
			out.Cells = append(out.Cells, Table4Cell{Slots: slots, Strategy: strat, StaticBound: bound})
		}
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	for i := range out.Cells {
		out.Cells[i].TotalCycles = res[i].Cycles
		out.Cells[i].CyclesPerIter = float64(res[i].Cycles) / float64(cfg.N)
	}
	return out, nil
}

// table4Strategies are Table 4's columns.
var table4Strategies = []Strategy{ScheduleNone, ScheduleStrategyA, ScheduleStrategyB}

// lk1Cell runs Livermore Kernel 1, scheduled by strat and unrolled unroll
// times, on slots thread slots with one load/store unit and standby
// stations: the sequential loop on one slot, the doall version on more.
func lk1Cell(n, slots int, strat Strategy, unroll int) (cell, error) {
	lv, err := BuildLivermore(LivermoreConfig{
		N: n, Threads: slots, Strategy: strat, Unroll: unroll, LoadStoreUnits: 1,
	})
	if err != nil {
		return cell{}, err
	}
	p := lv.Par
	if slots == 1 {
		p = lv.Seq
	}
	return mtCell(p.Text, func() (*Memory, error) { return p.NewMemory(64) },
		MTConfig{ThreadSlots: slots, LoadStoreUnits: 1, StandbyStations: true}), nil
}

// Table5Config parameterises the eager-execution study (paper §3.5,
// Table 5): the linked-list while loop on a one-load/store-unit machine.
type Table5Config struct {
	Nodes int   // list length (default 200)
	Slots []int // thread-slot counts (paper: 2, 3, 4)
}

func (c Table5Config) withDefaults() Table5Config {
	if c.Nodes <= 0 {
		c.Nodes = 200
	}
	if len(c.Slots) == 0 {
		c.Slots = []int{2, 3, 4, 6, 8}
	}
	return c
}

// Table5Cell is one measurement of eager execution.
type Table5Cell struct {
	Slots         int
	TotalCycles   uint64
	CyclesPerIter float64
	Speedup       float64 // vs the sequential traversal
}

// Table5 is the full reproduction of Table 5.
type Table5 struct {
	Config           Table5Config
	SequentialCycles uint64  // sequential traversal on the baseline machine
	SequentialPerIt  float64 // its cycles per iteration
	Cells            []Table5Cell
}

// Cell returns the measurement for a slot count.
func (t *Table5) Cell(slots int) (Table5Cell, bool) {
	for _, c := range t.Cells {
		if c.Slots == slots {
			return c, true
		}
	}
	return Table5Cell{}, false
}

// RunTable5 reproduces Table 5: average cycles per iteration of the eager
// execution of a sequential (pointer-chasing) while loop.
func RunTable5(cfg Table5Config) (*Table5, error) {
	cfg = cfg.withDefaults()
	ll, err := BuildLinkedList(LinkedListConfig{Nodes: cfg.Nodes, BreakAt: -1})
	if err != nil {
		return nil, err
	}
	cells := []cell{seqCell(ll, ll.Seq, 1)}
	for _, slots := range cfg.Slots {
		cells = append(cells, listCell(ll, slots))
	}
	res, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	seq := res[0].Cycles
	out := &Table5{Config: cfg, SequentialCycles: seq, SequentialPerIt: float64(seq) / float64(cfg.Nodes)}
	for i, slots := range cfg.Slots {
		c := res[1+i].Cycles
		out.Cells = append(out.Cells, Table5Cell{
			Slots:         slots,
			TotalCycles:   c,
			CyclesPerIter: float64(c) / float64(cfg.Nodes),
			Speedup:       ratio(seq, c),
		})
	}
	return out, nil
}

// listCell runs the eager list walk on slots thread slots with one
// load/store unit and standby stations.
func listCell(ll *LinkedList, slots int) cell {
	return parCell(ll, ll.Par, MTConfig{ThreadSlots: slots, LoadStoreUnits: 1, StandbyStations: true})
}
