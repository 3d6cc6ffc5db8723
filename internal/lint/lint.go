// Package lint statically verifies assembled hirata programs before they
// run on the simulator. It builds a control-flow graph per thread entry
// point, runs a must-defined register and queue-mapping dataflow to
// fixpoint, and reports protocol violations (queue-register ring misuse,
// uninitialised reads, unreachable code, bad branch targets, guaranteed
// queue deadlocks, thread-control misuse) as positioned diagnostics.
// With Config.InterThread it additionally runs a whole-program abstract
// interpretation across all thread entries — value ranges with a
// congruence (stride) component and a symbolic thread-id term, plus a
// happens-before relation from fork/kill structure and the queue-register
// ring — reporting data races, address-safety violations, dead stores,
// and statically decided branches (L010..L014).
//
// The diagnostic catalogue (L001..L014) is documented in docs/LINT.md.
package lint

import (
	"fmt"

	"hirata/internal/asm"
	"hirata/internal/isa"
)

// Config tunes the analysis.
type Config struct {
	// Entries are the thread-start PCs (RunMT's startPCs). Empty means a
	// single thread starting at PC 0.
	Entries []int
	// QueueDepth is the simulated queue-register FIFO depth, used by the
	// deadlock check. Zero means the simulator default of 1.
	QueueDepth int
	// InterThread enables the cross-thread abstract interpretation
	// (value ranges, happens-before, diagnostics L010..L014).
	InterThread bool
	// Deadlock enables the queue-protocol deadlock verification (L015,
	// L016) and — together with InterThread — the unbounded-spin check
	// (L017). See deadlock.go.
	Deadlock bool
	// ThreadSlots is the number of logical processors the machine runs
	// (how many threads ffork spawns). Zero means the simulator default
	// of 4. A program can override it with `.lint slots N`.
	ThreadSlots int
	// MemWords is the data-memory size in words for the out-of-range
	// check (L011). Zero means unknown: only provably negative addresses
	// are flagged.
	MemWords int64
	// Allow suppresses the listed diagnostic codes. Programs can extend
	// it with `.lint allow CODE...` directives.
	Allow []Code
}

func (c Config) entries() []int {
	if len(c.Entries) == 0 {
		return []int{0}
	}
	return c.Entries
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 1
	}
	return c.QueueDepth
}

func (c Config) threadSlots() int {
	if c.ThreadSlots <= 0 {
		return 4
	}
	return c.ThreadSlots
}

// analysis carries the shared state of one Analyze run.
type analysis struct {
	text  []isa.Instruction
	lines func(pc int) int // nil when no source map is available
	cfg   Config
	g     *cfg
	prog  *asm.Program // nil for AnalyzeText (no data image / symbols)

	// qReadRegs holds every register named as the read side of any
	// qen/qenf in the program; uninitialised-read reports are suppressed
	// for them (a pop supplies the value).
	qReadRegs regset

	queueReads  []queueUse
	queueWrites []queueUse

	inter *interAnalysis // the cross-thread analysis, when it ran

	diags []Diagnostic
}

// Analyze verifies an assembled program with default configuration.
func Analyze(p *asm.Program) []Diagnostic {
	return AnalyzeProgram(p, Config{})
}

// AnalyzeProgram verifies an assembled program, attaching source lines from
// the program's line map to each diagnostic. The program's own `.lint`
// directives are honoured: `.lint slots N` sets ThreadSlots when the
// config leaves it unset, and `.lint allow CODE...` extends Allow.
func AnalyzeProgram(p *asm.Program, cfg Config) []Diagnostic {
	_, ds := analyzeProgram(p, cfg)
	return ds
}

// analyzeProgram is AnalyzeProgram returning the finished analysis too.
func analyzeProgram(p *asm.Program, cfg Config) (*analysis, []Diagnostic) {
	if cfg.ThreadSlots == 0 && p.LintSlots > 0 {
		cfg.ThreadSlots = p.LintSlots
	}
	for _, c := range p.LintAllow {
		cfg.Allow = append(cfg.Allow, Code(c))
	}
	a := &analysis{text: p.Text, lines: p.Line, cfg: cfg, prog: p}
	return a, a.run()
}

// AnalyzeText verifies a bare instruction sequence (no source positions).
func AnalyzeText(text []isa.Instruction, cfg Config) []Diagnostic {
	a := &analysis{text: text, cfg: cfg}
	return a.run()
}

func (a *analysis) run() []Diagnostic {
	if len(a.text) == 0 {
		return nil
	}
	for _, in := range a.text {
		switch in.Op {
		case isa.QEN, isa.QENF:
			if in.Rs1.Valid() {
				a.qReadRegs |= regbit(in.Rs1)
			}
		}
	}
	a.checkEntries()
	a.g = buildCFG(a.text, a.cfg.entries())
	a.g.markReachable()

	a.checkTargets()
	a.checkUnreachable()
	a.runDataflow()
	a.checkQueueBalance()
	a.checkThreadControl()
	a.checkFallOff()
	if a.cfg.Deadlock {
		a.runDeadlock()
	}
	if a.cfg.InterThread {
		a.runInterThread()
	}

	if len(a.cfg.Allow) > 0 {
		allowed := make(map[Code]bool, len(a.cfg.Allow))
		for _, c := range a.cfg.Allow {
			allowed[c] = true
		}
		kept := a.diags[:0]
		for _, d := range a.diags {
			if !allowed[d.Code] {
				kept = append(kept, d)
			}
		}
		a.diags = kept
	}
	sortDiags(a.diags)
	return a.diags
}

func (a *analysis) reportf(code Code, pc int, format string, args ...any) {
	d := Diagnostic{Code: code, Name: code.Name(), PC: pc, Msg: fmt.Sprintf(format, args...)}
	if pc >= 0 && pc < len(a.text) {
		d.Ins = a.text[pc].String()
		if a.lines != nil {
			d.Line = a.lines(pc)
		}
	}
	a.diags = append(a.diags, d)
}

// checkEntries flags thread entry points outside the text section.
func (a *analysis) checkEntries() {
	for _, e := range a.cfg.entries() {
		if e < 0 || e >= len(a.text) {
			a.reportf(CodeBadTarget, -1,
				"thread entry point %d is outside the text section [0, %d)", e, len(a.text))
		}
	}
}

// checkTargets flags control transfers whose static target is outside the
// text section (L002) and transfers landing between the two halves of an
// expanded li (L003).
func (a *analysis) checkTargets() {
	n := int64(len(a.text))
	splitsLI := func(t int64) bool {
		if t <= 0 || t >= n {
			return false
		}
		mid, prev := a.text[t], a.text[t-1]
		return mid.Op == isa.ADDI && mid.Rd == mid.Rs1 &&
			prev.Op == isa.LIH && prev.Rd == mid.Rd
	}
	for pc, in := range a.text {
		var target int64
		var isTransfer bool
		if t, ok := controlTarget(in); ok {
			target, isTransfer = t, true
			if t < 0 || t >= n {
				a.reportf(CodeBadTarget, pc,
					"%s targets instruction %d, outside the text section [0, %d)", in.Op, t, n)
			}
		}
		if in.Op == isa.FFORK {
			target, isTransfer = int64(pc)+1, true
			if target >= n {
				a.reportf(CodeBadTarget, pc,
					"ffork at the last instruction: forked children would start at %d, outside the text section", target)
			}
		}
		if isTransfer && splitsLI(target) {
			a.reportf(CodeSplitLI, pc,
				"%s lands between `lih` and its completing `addi` (instruction %d), executing half of an expanded li", in.Op, target)
		}
	}
}

// checkUnreachable flags basic blocks no entry point can reach, skipping
// blocks that consist only of nop/halt padding (compilers emit a trailing
// halt after infinite loops).
func (a *analysis) checkUnreachable() {
	for _, b := range a.g.blocks {
		if b.reachable {
			continue
		}
		padding := true
		for pc := b.start; pc < b.end; pc++ {
			if op := a.text[pc].Op; op != isa.NOP && op != isa.HALT {
				padding = false
				break
			}
		}
		if !padding {
			a.reportf(CodeUnreachable, b.start,
				"instructions %d..%d are unreachable from every thread entry point", b.start, b.end-1)
		}
	}
}

// reaches reports whether execution can flow from block `from` to block
// `to` through one or more edges.
func (g *cfg) reaches(from, to int) bool {
	seen := make([]bool, len(g.blocks))
	stack := []int{}
	for _, e := range g.blocks[from].succs {
		if !seen[e.to] {
			seen[e.to] = true
			stack = append(stack, e.to)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, e := range g.blocks[n].succs {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return false
}

// checkQueueBalance flags statically guaranteed queue deadlocks (L006).
// It only runs for single-threaded programs (one entry, no ffork): with
// multiple threads the ring connects different slots' register banks, and
// produce/consume matching is a cross-thread property this analysis cannot
// see. Reads with no reachable producer interlock the decode stage forever;
// writes with no consumer fill the depth-bounded FIFO and stall.
func (a *analysis) checkQueueBalance() {
	if a.g.hasFork || len(a.cfg.entries()) != 1 {
		return
	}
	for _, fp := range []bool{false, true} {
		class := "integer"
		if fp {
			class = "FP"
		}
		var reads, writes []queueUse
		for _, u := range a.queueReads {
			if u.fp == fp {
				reads = append(reads, u)
			}
		}
		for _, u := range a.queueWrites {
			if u.fp == fp {
				writes = append(writes, u)
			}
		}
		switch {
		case len(reads) > 0 && len(writes) == 0:
			for _, u := range reads {
				a.reportf(CodeQueueDeadlock, u.pc,
					"%s queue-register read has no producer anywhere in this single-threaded program; the decode unit interlocks forever", class)
			}
		case len(writes) > 0 && len(reads) == 0:
			depth := a.cfg.queueDepth()
			for _, u := range writes {
				bi := a.g.blockAt[u.pc]
				prior := 0
				for _, w := range writes {
					wb := a.g.blockAt[w.pc]
					if (wb == bi && w.pc < u.pc) || (wb != bi && a.g.reaches(wb, bi)) {
						prior++
					}
				}
				if a.g.inCycle(bi) || prior >= depth {
					a.reportf(CodeQueueDeadlock, u.pc,
						"%s queue-register write has no consumer; the depth-%d FIFO fills and this write stalls forever", class, depth)
				}
			}
		}
	}
}

// checkThreadControl flags ffork inside a loop (forked children re-execute
// the fork) and kill in a program that can never have more than one thread.
func (a *analysis) checkThreadControl() {
	singleThreaded := !a.g.hasFork && len(a.cfg.entries()) == 1
	for pc, in := range a.text {
		bi := a.g.blockAt[pc]
		if !a.g.blocks[bi].reachable {
			continue
		}
		switch in.Op {
		case isa.FFORK:
			if a.g.inCycle(bi) {
				a.reportf(CodeThreadControl, pc,
					"ffork lies on a control-flow cycle: forked children reach the ffork again and re-fork")
			}
		case isa.KILL:
			if singleThreaded {
				a.reportf(CodeThreadControl, pc,
					"kill in a single-threaded program (no ffork, one entry point) terminates the only thread; use halt")
			}
		}
	}
}

// checkFallOff flags execution paths that run past the end of the text
// section without halting (L008): the slot never retires and the
// simulation spins until MaxCycles.
func (a *analysis) checkFallOff() {
	for _, b := range a.g.blocks {
		if !b.reachable || b.end != len(a.text) {
			continue
		}
		last := a.text[b.end-1]
		fallsOff := !endsStream(last.Op)
		if last.Op == isa.JAL && !a.g.hasJR {
			// The call never returns; the fall-through past the end is
			// unreachable.
			fallsOff = false
		}
		if fallsOff {
			a.reportf(CodeNoHalt, b.end-1,
				"execution can run past the end of the text section without halt; the thread slot never retires")
		}
	}
}
