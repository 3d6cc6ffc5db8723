// Package trace implements the paper's simulation methodology: §3.2 drives
// the simulator with "traced instruction sequences" of real programs. A
// Record is one dynamically executed instruction together with the two
// facts a timing-only replay needs beyond the encoding itself: the
// effective address of memory operations and the branch outcome.
//
// Traces are recorded by running a program on the functional interpreter
// (Record/RecordProgram), serialised with a compact binary codec
// (Write/Read), summarised (Stats), and replayed on the multithreaded
// machine through core.NewTraceDriven.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hirata/internal/exec"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// Record is one dynamically executed instruction.
type Record struct {
	Ins   isa.Instruction
	PC    int64 // word address the instruction was fetched from
	Addr  int64 // effective address, valid when Ins accesses memory
	Taken bool  // branch outcome, valid when Ins is a branch
}

// RecordProgram runs a single-threaded program on the functional
// interpreter and returns its dynamic instruction trace. The multithreading
// opcodes are rejected (traces describe one instruction stream).
func RecordProgram(prog []isa.Instruction, m *mem.Memory, maxSteps uint64) ([]Record, error) {
	ip := exec.NewInterp(prog, m)
	if maxSteps > 0 {
		ip.SetMaxSteps(maxSteps)
	}
	var out []Record
	for {
		pc := ip.PC
		if pc < 0 || pc >= int64(len(prog)) {
			return nil, fmt.Errorf("trace: pc %d outside program", pc)
		}
		in := prog[pc]
		rec := Record{Ins: in, PC: pc}
		if in.Op.IsMem() {
			rec.Addr = ip.Regs.ReadInt(in.Rs1) + int64(in.Imm)
		}
		running, err := ip.Step()
		if err != nil {
			return nil, err
		}
		if in.Op.IsBranch() {
			rec.Taken = ip.PC != pc+1
		}
		out = append(out, rec)
		if !running {
			return out, nil
		}
	}
}

// Codec constants.
const (
	magic   = "HTRC"
	version = 1

	flagTaken = 1 << 0
	flagAddr  = 1 << 1
)

// Write serialises a trace: a magic/version header, a record count, then
// per record the 32-bit instruction word, a varint PC delta, a flag byte,
// and a varint address for memory operations.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(uint64(len(recs))); err != nil {
		return err
	}
	prevPC := int64(0)
	for i, r := range recs {
		word, err := isa.Encode(r.Ins)
		if err != nil {
			return fmt.Errorf("trace: record %d: %w", i, err)
		}
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(word))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		if err := putUvarint(zigzag(r.PC - prevPC)); err != nil {
			return err
		}
		prevPC = r.PC
		flags := byte(0)
		if r.Taken {
			flags |= flagTaken
		}
		if r.Ins.Op.IsMem() {
			flags |= flagAddr
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if flags&flagAddr != 0 {
			if err := putUvarint(zigzag(r.Addr)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MaxRecords caps the record count a trace file may declare; Read refuses
// a larger one.
const MaxRecords = 1 << 30

// Read deserialises a trace written by Write.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(magic)])
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[len(magic)])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	if count > MaxRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", count)
	}
	// The count is untrusted until the records arrive: preallocate at most
	// maxPrealloc and let append grow, so a short file claiming a huge
	// count fails at its first missing record instead of exhausting memory.
	const maxPrealloc = 1 << 16
	recs := make([]Record, 0, min(count, maxPrealloc))
	prevPC := int64(0)
	var word [4]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		ins, err := isa.Decode(isa.Word(binary.BigEndian.Uint32(word[:])))
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d pc: %w", i, err)
		}
		pc := prevPC + unzigzag(delta)
		prevPC = pc
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d flags: %w", i, err)
		}
		rec := Record{Ins: ins, PC: pc, Taken: flags&flagTaken != 0}
		if flags&flagAddr != 0 {
			a, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d addr: %w", i, err)
			}
			rec.Addr = unzigzag(a)
		}
		recs = append(recs, rec)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("trace: after last record: %w", err)
		}
		extra, cerr := io.Copy(io.Discard, br)
		if cerr != nil {
			return nil, fmt.Errorf("trace: after last record: %w", cerr)
		}
		return nil, fmt.Errorf("trace: %d byte(s) of trailing garbage after record %d", extra+1, count)
	}
	return recs, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Mix summarises a trace's dynamic instruction mix.
type Mix struct {
	Total    uint64
	ByClass  [isa.NumUnitClasses + 1]uint64 // indexed by UnitClass
	Branches uint64
	Taken    uint64
	Loads    uint64
	Stores   uint64
}

// Stats computes the dynamic mix of a trace.
func Stats(recs []Record) Mix {
	var m Mix
	for _, r := range recs {
		m.Total++
		m.ByClass[r.Ins.Op.Unit()]++
		switch {
		case r.Ins.Op.IsBranch():
			m.Branches++
			if r.Taken {
				m.Taken++
			}
		case r.Ins.Op.IsLoad():
			m.Loads++
		case r.Ins.Op.IsStore():
			m.Stores++
		}
	}
	return m
}

// MemFraction returns the fraction of memory operations in the mix.
func (m Mix) MemFraction() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Loads+m.Stores) / float64(m.Total)
}

// String renders the mix.
func (m Mix) String() string {
	if m.Total == 0 {
		return "empty trace"
	}
	s := fmt.Sprintf("instructions: %d\n", m.Total)
	for cls := isa.UnitClass(0); int(cls) <= isa.NumUnitClasses; cls++ {
		if m.ByClass[cls] == 0 {
			continue
		}
		s += fmt.Sprintf("  %-10s %8d (%5.1f%%)\n", cls, m.ByClass[cls],
			100*float64(m.ByClass[cls])/float64(m.Total))
	}
	s += fmt.Sprintf("  loads %d, stores %d (memory fraction %.1f%%)\n",
		m.Loads, m.Stores, 100*m.MemFraction())
	if m.Branches > 0 {
		s += fmt.Sprintf("  branches %d, %.1f%% taken\n", m.Branches,
			100*float64(m.Taken)/float64(m.Branches))
	}
	return s
}
