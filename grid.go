package hirata

import (
	"fmt"

	"hirata/internal/sweep"
)

// The experiment grid. Every table, extension and model check in this
// package is a list of cells plus the arithmetic that turns the cells'
// results into its rows. runGrid is the one place where those cells run.

// cell is one simulation of an experiment: a program text, a builder of
// its fresh data memory, and the machine that runs it. The machine is the
// RISC baseline when risc is set, a replay of traces on cfg when traces is
// set, and otherwise the multithreaded core cfg with a thread at each of
// startPCs (none: one thread at 0).
type cell struct {
	text     []Instruction
	mem      func() (*Memory, error)
	risc     *RISCConfig
	cfg      MTConfig
	startPCs []int64
	traces   [][]TraceRecord
}

// riscCell runs text on the RISC baseline with ls load/store units.
func riscCell(text []Instruction, mem func() (*Memory, error), ls int) cell {
	return cell{text: text, mem: mem, risc: &RISCConfig{LoadStoreUnits: ls}}
}

// mtCell runs text on the multithreaded core cfg.
func mtCell(text []Instruction, mem func() (*Memory, error), cfg MTConfig, startPCs ...int64) cell {
	return cell{text: text, mem: mem, cfg: cfg, startPCs: startPCs}
}

// threadedWorkload lays out a program's data for a thread count: the ray
// tracer, the linked list and the recurrence.
type threadedWorkload interface {
	NewMemory(p *Program, threads int) (*Memory, error)
}

// seqCell runs w's sequential program p on the RISC baseline with ls
// load/store units.
func seqCell(w threadedWorkload, p *Program, ls int) cell {
	return riscCell(p.Text, func() (*Memory, error) { return w.NewMemory(p, 1) }, ls)
}

// parCell runs w's program p on the core cfg, with p's data laid out for
// cfg's thread slots.
func parCell(w threadedWorkload, p *Program, cfg MTConfig) cell {
	slots := cfg.Effective().ThreadSlots
	return mtCell(p.Text, func() (*Memory, error) { return w.NewMemory(p, slots) }, cfg)
}

// String describes the cell's machine: the baseline's load/store units,
// or every field in which the core's configuration differs from the
// default machine's.
func (c cell) String() string {
	if c.risc != nil {
		return fmt.Sprintf("RISC baseline LoadStoreUnits=%d", c.risc.LoadStoreUnits)
	}
	desc := "core"
	if c.traces != nil {
		desc = fmt.Sprintf("replay of %d traces on the core", len(c.traces))
	}
	def := MTConfig{}.CanonicalLines()
	for i, field := range c.cfg.CanonicalLines() {
		if field != def[i] {
			desc += " " + field
		}
	}
	return desc
}

// run simulates the cell. A RISC run fills only Cycles and Instructions.
func (c cell) run() (MTResult, error) {
	if c.traces != nil {
		return ReplayTraces(c.cfg, c.traces, RunOptions{})
	}
	m, err := c.mem()
	if err != nil {
		return MTResult{}, err
	}
	if c.risc != nil {
		res, err := RunRISC(*c.risc, c.text, m)
		return MTResult{Cycles: res.Cycles, Instructions: res.Instructions}, err
	}
	return RunMT(c.cfg, c.text, m, c.startPCs...)
}

// runGrid runs the cells on the sweep engine at the configured parallelism
// and returns their results in cell order. A failing cell's error names
// its machine; with several failures, the first cell's error is returned.
func runGrid(cells []cell) ([]MTResult, error) {
	return sweep.Map(len(cells), Parallelism(), func(i int) (MTResult, error) {
		res, err := cells[i].run()
		if err != nil {
			return MTResult{}, fmt.Errorf("%s: %w", cells[i], err)
		}
		return res, nil
	})
}

// ratio is base / cycles, the speed-up of a run over its baseline.
func ratio(base, cycles uint64) float64 { return float64(base) / float64(cycles) }
