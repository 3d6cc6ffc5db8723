// Package asm implements a two-pass assembler and a disassembler for the
// processor's ISA. Assembly programs drive every workload in this
// repository: the synthetic ray-tracing kernel, Livermore Kernel 1 and the
// linked-list while loop are all written in this language (the paper used a
// commercial RISC compiler; a small assembler is the from-scratch
// equivalent substrate).
//
// Syntax overview:
//
//	; comment        # comment        // comment
//	.text            switch to the text section (default)
//	.data            switch to the data section
//	.org  ADDR       set the data location counter
//	.word V ...      emit integer words
//	.float V ...     emit float64 words
//	.space N         reserve N zeroed words
//	.equ NAME V      define a constant
//	label:           define a label (text: instruction index; data: address)
//
//	add   r1, r2, r3
//	addi  r1, r0, -7
//	lw    r4, 8(r2)      flw f1, x(r0)      sw r5, 0(r2)
//	beq   r1, r2, loop   bnez r1, done      j exit
//	li    r1, 123456     la r2, table       mov r3, r1      (pseudo)
//	call  fn             ret                subi r1, r2, 4  (pseudo)
//
// Immediates may be decimal or 0x-hex literals, .equ constants, labels, or
// label+offset / label-offset expressions.
package asm

import (
	"fmt"
	"sort"

	"hirata/internal/isa"
	"hirata/internal/mem"
)

// DataWord is one initialised word of the data image.
type DataWord struct {
	Addr int64
	Val  uint64
}

// WordClass records which directive emitted a data word, giving the word a
// static type: .word words hold integers, .float words hold float64 bit
// patterns, and .space words (or addresses outside the image) are untyped.
type WordClass uint8

// Word classes.
const (
	WordUnknown WordClass = iota
	WordInt
	WordFloat
)

// DataSym is one data-section label with the extent of the object it
// names: Size words, up to the next data label or the end of the image.
type DataSym struct {
	Name string
	Addr int64
	Size int64
}

// Program is the output of the assembler: the instruction text, the
// initialised data image, and the resolved symbol table.
type Program struct {
	Text    []isa.Instruction
	Data    []DataWord
	Symbols map[string]int64
	DataEnd int64 // first word address beyond all data (for sizing memory)
	// Lines maps each Text index to the 1-based source line of the
	// statement that emitted it (0 when unknown, e.g. hand-built
	// programs). Lint diagnostics and the disassembler use it to point
	// back at the offending source line.
	Lines []int
	// DataSyms lists the data-section labels in address order with the
	// extent of each labelled object; the verifier's dead-store check
	// treats labelled words as the program's declared output surface.
	DataSyms []DataSym
	// WordTypes records the WordClass of every .word/.float address.
	// Addresses absent from the map (.space or untyped) are WordUnknown.
	WordTypes map[int64]WordClass
	// LintAllow holds diagnostic codes suppressed by `.lint allow` in the
	// source; LintSlots is the thread-slot count declared by `.lint slots`
	// (0 = unspecified). See docs/LINT.md.
	LintAllow []string
	LintSlots int
}

// WordType returns the static type of the data word at addr.
func (p *Program) WordType(addr int64) WordClass {
	return p.WordTypes[addr]
}

// Line returns the 1-based source line of instruction pc, or 0 when the
// program carries no line information.
func (p *Program) Line(pc int) int {
	if pc < 0 || pc >= len(p.Lines) {
		return 0
	}
	return p.Lines[pc]
}

// InitMemory writes the program's data image into m.
func (p *Program) InitMemory(m *mem.Memory) error {
	for _, w := range p.Data {
		if err := m.Store(w.Addr, w.Val); err != nil {
			return fmt.Errorf("asm: initialising data at %d: %w", w.Addr, err)
		}
	}
	return nil
}

// NewMemory allocates a memory just large enough for the data image (with
// the given amount of extra headroom in words) and initialises it. A
// negative headroom, or a total above mem.MaxWords, is an error.
func (p *Program) NewMemory(headroom int64) (*mem.Memory, error) {
	if headroom < 0 {
		return nil, fmt.Errorf("asm: memory headroom must not be negative, got %d", headroom)
	}
	if headroom > mem.MaxWords-p.DataEnd {
		return nil, fmt.Errorf("asm: data image (%d words) plus headroom %d exceeds the %d-word memory limit",
			p.DataEnd, headroom, mem.MaxWords)
	}
	size := p.DataEnd + headroom
	if size < 1 {
		size = 1
	}
	m := mem.NewMemory(int(size))
	if err := p.InitMemory(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Symbol looks up a label or .equ constant.
func (p *Program) Symbol(name string) (int64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSymbol looks up a symbol and panics if it is undefined; intended for
// workload and test setup code where absence is a programming error.
func (p *Program) MustSymbol(name string) int64 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return v
}

// resolveDataExtents sorts DataSyms by address and gives each labelled
// object its extent: up to the next data label, or to the end of the image.
func (p *Program) resolveDataExtents() {
	sort.Slice(p.DataSyms, func(i, j int) bool { return p.DataSyms[i].Addr < p.DataSyms[j].Addr })
	for i := range p.DataSyms {
		end := p.DataEnd
		if i+1 < len(p.DataSyms) {
			end = p.DataSyms[i+1].Addr
		}
		if end < p.DataSyms[i].Addr {
			end = p.DataSyms[i].Addr
		}
		p.DataSyms[i].Size = end - p.DataSyms[i].Addr
	}
}

// sortData orders the data image by address and checks for overlaps.
func (p *Program) sortData() error {
	sort.Slice(p.Data, func(i, j int) bool { return p.Data[i].Addr < p.Data[j].Addr })
	for i := 1; i < len(p.Data); i++ {
		if p.Data[i].Addr == p.Data[i-1].Addr {
			return fmt.Errorf("asm: duplicate data at address %d", p.Data[i].Addr)
		}
	}
	return nil
}
