package hirata

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"hirata/internal/core"
	"hirata/internal/model"
)

// Design-space exploration (hirata-bench -explore, docs/MODEL.md): the
// analytic model from internal/model searches thousands of (slots, units,
// standby, issue-width) configurations without simulating them, then only
// the Pareto-optimal cost/cycles frontier is re-simulated exactly to
// measure the model's error where it matters.

// Model-layer aliases, following the export pattern of the other
// subsystems (lint, obs).
type (
	// ModelWorkload is a characterized + calibrated program the analytic
	// model predicts from.
	ModelWorkload = model.Workload
	// ModelPrediction is one analytic prediction.
	ModelPrediction = model.Prediction
	// ModelPoint is one explored design point (prediction + cost).
	ModelPoint = model.Point
	// StaticModelProfile is the static workload characterization.
	StaticModelProfile = model.StaticProfile
)

// NewModelWorkload characterizes a program text for the analytic model.
func NewModelWorkload(name string, text []Instruction, startPCs ...int64) *ModelWorkload {
	entries := make([]int, 0, len(startPCs))
	for _, pc := range startPCs {
		entries = append(entries, int(pc))
	}
	return model.NewWorkload(name, text, entries)
}

// ExploreConfig parameterises RunExplore.
type ExploreConfig struct {
	// Workload sizes the ray-trace program being explored.
	Workload RayTraceConfig
}

// ExplorePoint is a frontier point: the analytic prediction plus the
// exact re-simulation it is checked against.
type ExplorePoint struct {
	model.Point
	// Simulated is the exact cycle count of this configuration.
	Simulated uint64 `json:"simulated"`
	// ErrPct is the signed model error: 100·(predicted−simulated)/simulated.
	ErrPct float64 `json:"errPct"`
}

// ExploreReport is the full design-space exploration result.
type ExploreReport struct {
	Workload string `json:"workload"`
	// Searched is the number of configurations predicted analytically.
	Searched int `json:"searched"`
	// Anchors is the number of calibration simulations run.
	Anchors int `json:"anchors"`
	// Frontier is the Pareto-optimal set, cheapest first, re-simulated.
	Frontier []ExplorePoint `json:"frontier"`
	// MaxAbsErrPct is the worst |ErrPct| across the frontier.
	MaxAbsErrPct float64 `json:"maxAbsErrPct"`
	// BoundViolations counts predictions below their certified lower
	// bound — always zero (predictions are clamped); reported so the
	// differential guarantee is visible in the artifact.
	BoundViolations int `json:"boundViolations"`
}

// exploreAnchors is the calibration protocol: one low-contention run
// (pins the dependence and fetch-bubble rates), one high-contention run
// (pins the knee sharpness), and two single-slot wide-issue runs (pin the
// width scaling). Each is a Table 2 or Table 3 machine, which is where
// ValidateModel takes their results from.
func exploreAnchors() []core.Config {
	return []core.Config{
		{ThreadSlots: 2, LoadStoreUnits: 2, StandbyStations: true},
		{ThreadSlots: 8, LoadStoreUnits: 1, StandbyStations: true},
		{ThreadSlots: 1, IssueWidth: 2, LoadStoreUnits: 2, StandbyStations: true},
		{ThreadSlots: 1, IssueWidth: 4, LoadStoreUnits: 2, StandbyStations: true},
	}
}

// RunExplore searches the configuration grid analytically, re-simulates
// the Pareto frontier exactly, and reports the model error against those
// exact runs.
func RunExplore(cfg ExploreConfig) (*ExploreReport, error) {
	rt, err := BuildRayTrace(cfg.Workload)
	if err != nil {
		return nil, err
	}
	w := model.NewWorkload("raytrace", rt.Par.Text, nil)
	anchors := exploreAnchors()
	calibration := make([]cell, len(anchors))
	for i, a := range anchors {
		calibration[i] = parCell(rt, rt.Par, a)
	}
	anchorRes, err := runGrid(calibration)
	if err != nil {
		return nil, fmt.Errorf("explore calibration: %w", err)
	}
	for i, a := range anchors {
		w.AddAnchor(a, anchorRes[i])
	}

	points := w.Explore(model.DefaultGrid(core.Config{}))
	frontier := model.Pareto(points)

	rep := &ExploreReport{
		Workload: "raytrace",
		Searched: len(points),
		Anchors:  len(anchors),
	}
	for _, p := range points {
		if !p.Unbounded && int64(p.Cycles) < p.Bound {
			rep.BoundViolations++
		}
	}

	resim := make([]cell, len(frontier))
	for i, p := range frontier {
		resim[i] = parCell(rt, rt.Par, p.Config)
	}
	sims, err := runGrid(resim)
	if err != nil {
		return nil, fmt.Errorf("explore frontier: %w", err)
	}
	for i, p := range frontier {
		ep := ExplorePoint{Point: p, Simulated: sims[i].Cycles, ErrPct: errPct(p.Cycles, sims[i].Cycles)}
		rep.MaxAbsErrPct = max(rep.MaxAbsErrPct, math.Abs(ep.ErrPct))
		rep.Frontier = append(rep.Frontier, ep)
	}
	return rep, nil
}

// errPct is the signed model error: 100·(predicted−simulated)/simulated.
func errPct(predicted, simulated uint64) float64 {
	return 100 * (float64(predicted) - float64(simulated)) / float64(simulated)
}

// Format renders the exploration report as text.
func (r *ExploreReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Design-space exploration: %s\n", r.Workload)
	fmt.Fprintf(&b, "  %d configurations searched analytically, %d calibration runs, %d on the Pareto frontier\n",
		r.Searched, r.Anchors, len(r.Frontier))
	fmt.Fprintf(&b, "  bound violations: %d (every prediction is clamped to its certified lower bound)\n\n", r.BoundViolations)
	fmt.Fprintf(&b, "  %-6s %-44s %-9s %-9s %s\n", "cost", "configuration", "predicted", "simulated", "err")
	for _, p := range r.Frontier {
		fmt.Fprintf(&b, "  %-6.2f %-44s %-9d %-9d %+.1f%%\n", p.Cost, describeConfig(p.Config), p.Cycles, p.Simulated, p.ErrPct)
	}
	if len(r.Frontier) > 0 {
		fmt.Fprintf(&b, "\n  max |model error| on the frontier: %.1f%%\n", r.MaxAbsErrPct)
	}
	return b.String()
}

func describeConfig(cfg core.Config) string {
	eff := cfg.Effective()
	sb := "off"
	if eff.StandbyStations {
		sb = fmt.Sprintf("on/d%d", eff.StandbyDepth)
	}
	extras := ""
	for c := 1; c <= len(cfg.ExtraUnits)-1; c++ {
		if n := cfg.ExtraUnits[c]; n > 0 {
			extras += fmt.Sprintf(" +%d%s", n, UnitClass(c))
		}
	}
	return fmt.Sprintf("S=%d D=%d ls=%d standby=%s%s",
		eff.ThreadSlots, eff.IssueWidth, eff.LoadStoreUnits, sb, extras)
}

// ModelValidationPoint is one Tables 2–5 cell: the model's prediction
// against the exact re-simulation.
type ModelValidationPoint struct {
	Table     string  `json:"table"`
	Label     string  `json:"label"`
	Predicted uint64  `json:"predicted"`
	Simulated uint64  `json:"simulated"`
	ErrPct    float64 `json:"errPct"`
	Bound     int64   `json:"bound"`
	Anchor    bool    `json:"anchor"` // cell doubled as a calibration run
}

// ModelValidation is the model-vs-simulator comparison across scaled-down
// reproductions of the paper's Tables 2–5.
type ModelValidation struct {
	Points []ModelValidationPoint `json:"points"`
	// PerTable maps each table to its worst |error| in percent.
	PerTable map[string]float64 `json:"perTable"`
	// MaxAbsErrPct is the worst |error| across every cell.
	MaxAbsErrPct float64 `json:"maxAbsErrPct"`
	// BoundViolations counts predictions below the certificate (always 0).
	BoundViolations int `json:"boundViolations"`
}

// ModelValidationConfig sizes the Tables 2–5 reproductions the model is
// validated against. The zero value picks sizes small enough for CI while
// preserving each table's contention structure.
type ModelValidationConfig struct {
	Rays      int // ray-trace rays (Tables 2 and 3); default 48
	Spheres   int // ray-trace spheres; default 6
	LK1N      int // Livermore Kernel 1 iterations (Table 4); default 50
	ListNodes int // linked-list nodes (Table 5); default 40
}

func (c ModelValidationConfig) withDefaults() ModelValidationConfig {
	if c.Rays <= 0 {
		c.Rays = 48
	}
	if c.Spheres <= 0 {
		c.Spheres = 6
	}
	if c.LK1N <= 0 {
		c.LK1N = 50
	}
	if c.ListNodes <= 0 {
		c.ListNodes = 40
	}
	return c
}

// ValidateModel re-simulates scaled-down Tables 2–5, calibrates the
// analytic model on a handful of anchor cells per table, predicts every
// remaining cell, and reports per-point and per-table errors.
func ValidateModel(cfg ModelValidationConfig) (*ModelValidation, error) {
	cfg = cfg.withDefaults()
	v := &ModelValidation{PerTable: make(map[string]float64)}

	record := func(table, label string, p model.Prediction, simulated uint64, anchor bool) {
		pt := ModelValidationPoint{
			Table: table, Label: label,
			Predicted: p.Cycles, Simulated: simulated,
			ErrPct: errPct(p.Cycles, simulated),
			Bound:  p.Bound, Anchor: anchor,
		}
		if int64(p.Cycles) < p.Bound {
			v.BoundViolations++
		}
		abs := math.Abs(pt.ErrPct)
		if abs > v.PerTable[table] {
			v.PerTable[table] = abs
		}
		v.MaxAbsErrPct = max(v.MaxAbsErrPct, abs)
		v.Points = append(v.Points, pt)
	}

	// Tables 2 and 3: the ray tracer on Table 2's and Table 3's machines,
	// one shared workload calibrated once on the explore anchors, whose
	// results come from the same cells.
	rt, err := BuildRayTrace(RayTraceConfig{Rays: cfg.Rays, Spheres: cfg.Spheres})
	if err != nil {
		return nil, err
	}
	t2 := table2Cells(rt, Table2Config{}.withDefaults())
	rtCells := append(t2, table3Cells(rt, Table3Config{}.withDefaults().Products)...)
	res, err := runGrid(rtCells)
	if err != nil {
		return nil, fmt.Errorf("model validation tables 2 and 3: %w", err)
	}
	wrt := model.NewWorkload("raytrace", rt.Par.Text, nil)
	anchorSet := make(map[core.Config]bool)
	for _, a := range exploreAnchors() {
		i := slices.IndexFunc(rtCells, func(c cell) bool { return c.cfg.Effective() == a.Effective() })
		if i < 0 {
			return nil, fmt.Errorf("model validation: anchor %s is not a Table 2 or 3 machine", describeConfig(a))
		}
		wrt.AddAnchor(a, res[i])
		anchorSet[a.Effective()] = true
	}
	for i, c := range rtCells {
		table, label := "table2", fmt.Sprintf("S=%d ls=%d standby=%v", c.cfg.ThreadSlots, c.cfg.LoadStoreUnits, c.cfg.StandbyStations)
		if i >= len(t2) {
			table, label = "table3", fmt.Sprintf("D=%d S=%d", c.cfg.IssueWidth, c.cfg.ThreadSlots)
		}
		record(table, label, wrt.Predict(c.cfg), res[i].Cycles, anchorSet[c.cfg.Effective()])
	}

	// Table 4: Livermore Kernel 1 under the three scheduling strategies.
	// Each (strategy, slots) cell schedules its own text, so the cell's
	// workload characterizes that text while the strategy's anchor runs
	// (2 and 8 slots) pin the family's stall rates and N(S) trend.
	for _, strat := range table4Strategies {
		// lk1[s-1] runs on s slots.
		lk1 := make([]cell, 8)
		for i := range lk1 {
			if lk1[i], err = lk1Cell(cfg.LK1N, i+1, strat, 0); err != nil {
				return nil, err
			}
		}
		if res, err = runGrid(lk1); err != nil {
			return nil, fmt.Errorf("model validation table4 (%v): %w", strat, err)
		}
		for i, c := range lk1 {
			slots := i + 1
			w := model.NewWorkload(fmt.Sprintf("lk1-%v", strat), c.text, nil)
			// The parallel cells share one text family (the same kernel
			// rescheduled per slot count), so the 2- and 8-slot anchors
			// transfer. The single-slot row executes the *sequential*
			// program — a different text — and anchors on itself.
			anchorSlots := []int{2, 8}
			if slots == 1 {
				anchorSlots = []int{1}
			}
			for _, as := range anchorSlots {
				w.AddAnchor(lk1[as-1].cfg, res[as-1])
			}
			record("table4", fmt.Sprintf("%v S=%d", strat, slots),
				w.Predict(c.cfg), res[i].Cycles, slots == 1 || slots == 2 || slots == 8)
		}
	}

	// Table 5: the doacross linked-list traversal, whose saturation is a
	// queue-coupling floor rather than a unit or dependence limit.
	ll, err := BuildLinkedList(LinkedListConfig{Nodes: cfg.ListNodes, BreakAt: -1})
	if err != nil {
		return nil, err
	}
	llSlots := []int{2, 3, 4, 6, 8}
	list := make([]cell, len(llSlots))
	for i, s := range llSlots {
		list[i] = listCell(ll, s)
	}
	if res, err = runGrid(list); err != nil {
		return nil, fmt.Errorf("model validation table5: %w", err)
	}
	anchor := func(slots int) bool { return slots == 2 || slots == 8 }
	wll := model.NewWorkload("linkedlist", ll.Par.Text, nil)
	for i, s := range llSlots {
		if anchor(s) {
			wll.AddAnchor(list[i].cfg, res[i])
		}
	}
	for i, s := range llSlots {
		record("table5", fmt.Sprintf("S=%d", s), wll.Predict(list[i].cfg), res[i].Cycles, anchor(s))
	}

	return v, nil
}

// Format renders the validation as text, per-point errors included.
func (v *ModelValidation) Format() string {
	var b strings.Builder
	b.WriteString("Analytic model vs exact simulation (Tables 2-5 reproductions)\n")
	last := ""
	for _, p := range v.Points {
		if p.Table != last {
			fmt.Fprintf(&b, "\n%s (worst |err| %.1f%%)\n", p.Table, v.PerTable[p.Table])
			last = p.Table
		}
		mark := " "
		if p.Anchor {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s %-28s pred=%-8d sim=%-8d err=%+6.1f%%  bound=%d\n",
			mark, p.Label, p.Predicted, p.Simulated, p.ErrPct, p.Bound)
	}
	tables := make([]string, 0, len(v.PerTable))
	for t := range v.PerTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	b.WriteString("\nper-table worst |err|:")
	for _, t := range tables {
		fmt.Fprintf(&b, " %s=%.1f%%", t, v.PerTable[t])
	}
	fmt.Fprintf(&b, "\nmax |err| = %.1f%%  (* = calibration anchor cell)  bound violations = %d\n",
		v.MaxAbsErrPct, v.BoundViolations)
	return b.String()
}
