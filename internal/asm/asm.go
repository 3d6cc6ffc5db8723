package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hirata/internal/isa"
	"hirata/internal/mem"
)

// Assemble translates assembly source into a Program. Errors identify the
// 1-based source line.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		prog:    &Program{Symbols: make(map[string]int64)},
		section: sectText,
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	if err := a.pass2(); err != nil {
		return nil, err
	}
	if err := a.prog.sortData(); err != nil {
		return nil, err
	}
	a.prog.resolveDataExtents()
	return a.prog, nil
}

// MustAssemble is Assemble for programs embedded in tests and workload
// generators, where a syntax error is a bug.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type section uint8

const (
	sectText section = iota
	sectData
)

// stmt is one parsed instruction statement awaiting pass-2 resolution.
type stmt struct {
	line  int
	mnem  string
	ops   []string
	index int // text index of the first emitted instruction
	size  int // number of instructions this statement expands to
}

// dataSlot is one .word/.float operand awaiting pass-2 expression resolution.
type dataSlot struct {
	line  int
	addr  int64
	expr  string
	float bool
}

type assembler struct {
	prog    *Program
	section section
	loc     int64 // data location counter
	stmts   []stmt
	slots   []dataSlot
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return fmt.Errorf("asm: line %d: %s", line, fmt.Sprintf(format, args...))
}

// pass1 parses lines, assigns label values, expands directive data, and
// computes the size of every instruction statement.
func (a *assembler) pass1(src string) error {
	textIndex := 0
	for num, raw := range strings.Split(src, "\n") {
		line := num + 1
		s := stripComment(raw)
		// Peel off any leading labels.
		for {
			s = strings.TrimSpace(s)
			colon := strings.Index(s, ":")
			if colon < 0 || strings.ContainsAny(s[:colon], " \t") {
				break
			}
			name := s[:colon]
			if !validSymbol(name) {
				return a.errf(line, "invalid label %q", name)
			}
			if _, dup := a.prog.Symbols[name]; dup {
				return a.errf(line, "duplicate symbol %q", name)
			}
			if a.section == sectText {
				a.prog.Symbols[name] = int64(textIndex)
			} else {
				a.prog.Symbols[name] = a.loc
				a.prog.DataSyms = append(a.prog.DataSyms, DataSym{Name: name, Addr: a.loc})
			}
			s = s[colon+1:]
		}
		if s == "" {
			continue
		}
		mnem, rest := splitMnemonic(s)
		if strings.HasPrefix(mnem, ".") {
			if err := a.directive(line, mnem, rest); err != nil {
				return err
			}
			continue
		}
		if a.section != sectText {
			return a.errf(line, "instruction %q in data section", mnem)
		}
		st := stmt{line: line, mnem: mnem, ops: splitOperands(rest), index: textIndex}
		size, err := a.stmtSize(st)
		if err != nil {
			return err
		}
		st.size = size
		textIndex += size
		a.stmts = append(a.stmts, st)
	}
	return nil
}

// directive handles one assembler directive during pass 1.
func (a *assembler) directive(line int, mnem, rest string) error {
	switch mnem {
	case ".text":
		a.section = sectText
	case ".data":
		a.section = sectData
	case ".org":
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 0, 64)
		if err != nil || v < 0 {
			return a.errf(line, ".org needs a non-negative integer, got %q", rest)
		}
		if v > mem.MaxWords {
			return a.errf(line, ".org %d is past the %d-word memory limit", v, mem.MaxWords)
		}
		a.loc = v
		a.section = sectData
	case ".space":
		if a.section != sectData {
			return a.errf(line, ".space outside data section")
		}
		n, err := strconv.ParseInt(strings.TrimSpace(rest), 0, 64)
		if err != nil || n < 0 {
			return a.errf(line, ".space needs a non-negative integer, got %q", rest)
		}
		if n > mem.MaxWords-a.loc {
			return a.errf(line, ".space %d runs past the %d-word memory limit", n, mem.MaxWords)
		}
		a.loc += n
		a.bumpDataEnd()
	case ".word", ".float":
		if a.section != sectData {
			return a.errf(line, "%s outside data section", mnem)
		}
		fields := splitOperands(rest)
		if len(fields) == 0 {
			return a.errf(line, "%s needs at least one value", mnem)
		}
		class := WordInt
		if mnem == ".float" {
			class = WordFloat
		}
		if a.prog.WordTypes == nil {
			a.prog.WordTypes = make(map[int64]WordClass)
		}
		for _, f := range fields {
			if a.loc >= mem.MaxWords {
				return a.errf(line, "%s runs past the %d-word memory limit", mnem, mem.MaxWords)
			}
			a.slots = append(a.slots, dataSlot{line: line, addr: a.loc, expr: f, float: mnem == ".float"})
			a.prog.WordTypes[a.loc] = class
			a.loc++
		}
		a.bumpDataEnd()
	case ".equ":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return a.errf(line, ".equ needs NAME VALUE")
		}
		if !validSymbol(fields[0]) {
			return a.errf(line, "invalid .equ name %q", fields[0])
		}
		if _, dup := a.prog.Symbols[fields[0]]; dup {
			return a.errf(line, "duplicate symbol %q", fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 0, 64)
		if err != nil {
			return a.errf(line, ".equ value %q is not an integer", fields[1])
		}
		a.prog.Symbols[fields[0]] = v
	case ".lint":
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return a.errf(line, ".lint needs `allow CODE...` or `slots N`")
		}
		switch fields[0] {
		case "allow":
			for _, c := range fields[1:] {
				if !KnownLintCodes[c] {
					return a.errf(line, ".lint allow: unknown diagnostic code %q (known: L001..L017)", c)
				}
			}
			a.prog.LintAllow = append(a.prog.LintAllow, fields[1:]...)
		case "slots":
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return a.errf(line, ".lint slots needs a positive integer, got %q", fields[1])
			}
			a.prog.LintSlots = n
		default:
			return a.errf(line, "unknown .lint directive %q", fields[0])
		}
	default:
		return a.errf(line, "unknown directive %s", mnem)
	}
	return nil
}

func (a *assembler) bumpDataEnd() {
	if a.loc > a.prog.DataEnd {
		a.prog.DataEnd = a.loc
	}
}

// stmtSize returns how many machine instructions a statement expands to.
// The answer must not depend on symbol values (labels are unresolved in
// pass 1), so li/la use a purely syntactic rule: a literal that fits the
// signed 14-bit immediate costs one instruction, everything else two.
func (a *assembler) stmtSize(st stmt) (int, error) {
	switch st.mnem {
	case "li", "la":
		if len(st.ops) != 2 {
			return 0, a.errf(st.line, "%s needs 2 operands", st.mnem)
		}
		if v, err := strconv.ParseInt(st.ops[1], 0, 64); err == nil && fitsImm14(v) {
			return 1, nil
		}
		return 2, nil
	case "mov", "neg", "subi", "ret", "call", "b":
		return 1, nil
	default:
		if _, ok := isa.OpcodeByName(st.mnem); !ok {
			return 0, a.errf(st.line, "unknown mnemonic %q", st.mnem)
		}
		return 1, nil
	}
}

// pass2 resolves operands and emits instructions and data words.
func (a *assembler) pass2() error {
	for _, sl := range a.slots {
		var val uint64
		if sl.float {
			f, err := strconv.ParseFloat(sl.expr, 64)
			if err != nil {
				return a.errf(sl.line, ".float value %q: %v", sl.expr, err)
			}
			val = math.Float64bits(f)
		} else {
			v, err := a.eval(sl.line, sl.expr)
			if err != nil {
				return err
			}
			val = uint64(v)
		}
		a.prog.Data = append(a.prog.Data, DataWord{Addr: sl.addr, Val: val})
	}
	for _, st := range a.stmts {
		ins, err := a.emit(st)
		if err != nil {
			return err
		}
		if len(ins) != st.size {
			return a.errf(st.line, "internal: statement size changed between passes (%d != %d)", len(ins), st.size)
		}
		a.prog.Text = append(a.prog.Text, ins...)
		for range ins {
			a.prog.Lines = append(a.prog.Lines, st.line)
		}
	}
	for i, in := range a.prog.Text {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("asm: instruction %d (%s): %w", i, in, err)
		}
	}
	return nil
}

// eval resolves an integer expression: LITERAL, SYM, SYM+LIT or SYM-LIT.
func (a *assembler) eval(line int, expr string) (int64, error) {
	expr = strings.TrimSpace(expr)
	if v, err := strconv.ParseInt(expr, 0, 64); err == nil {
		return v, nil
	}
	// Find a +/- splitting symbol and offset (skip a leading sign).
	for i := 1; i < len(expr); i++ {
		if expr[i] == '+' || expr[i] == '-' {
			base, err := a.eval(line, expr[:i])
			if err != nil {
				return 0, err
			}
			off, err := strconv.ParseInt(expr[i+1:], 0, 64)
			if err != nil {
				return 0, a.errf(line, "bad offset in expression %q", expr)
			}
			if expr[i] == '-' {
				off = -off
			}
			return base + off, nil
		}
	}
	if v, ok := a.prog.Symbols[expr]; ok {
		return v, nil
	}
	return 0, a.errf(line, "undefined symbol %q", expr)
}

func fitsImm14(v int64) bool { return v >= -8192 && v <= 8191 }

// liParts splits v for a lih+addi expansion: v == hi<<14 + lo with lo in
// the signed 14-bit range.
func liParts(v int64) (hi, lo int64, ok bool) {
	hi = (v + 8192) >> 14
	lo = v - hi<<14
	// lih's own immediate is signed 14-bit, bounding v to about ±2^27.
	if !fitsImm14(hi) || !fitsImm14(lo) {
		return 0, 0, false
	}
	return hi, lo, true
}
