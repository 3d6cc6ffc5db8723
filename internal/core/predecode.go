package core

import "hirata/internal/isa"

// insMeta is per-static-instruction metadata computed once at construction
// time. The decode path inspects every D2 window entry every cycle; without
// predecoding it would re-derive operand lists and opcode properties from
// the instruction word each time (the dominant cost in issueFromSlot and
// tryIssue). One insMeta exists per program position (per distinct
// instruction in trace mode, see internTraces) and is shared by reference
// through dinstr and inflight.
type insMeta struct {
	srcs      [2]isa.Reg // source registers (nsrc valid entries)
	srcSB     [2]uint8   // their scoreboard indices (sbIndex)
	nsrc      uint8
	dest      isa.Reg // destination register, NoReg if none
	destSB    uint8   // its scoreboard index
	class     isa.UnitClass
	issueLat  uint64
	resultLat uint64
	isMem     bool
	isLoad    bool
	control   bool // executes inside the decode unit (class == UnitNone)
	needsPrio bool // priority-interlocked (§2.3.3)
}

// srcList returns the predecoded source operand slice.
func (m *insMeta) srcList() []isa.Reg { return m.srcs[:m.nsrc] }

// buildMeta derives the metadata for one static instruction.
func buildMeta(in isa.Instruction) insMeta {
	m := insMeta{
		dest:      in.Dest(),
		class:     in.Op.Unit(),
		issueLat:  uint64(in.Op.IssueLatency()),
		resultLat: uint64(in.Op.ResultLatency()),
		isMem:     in.Op.IsMem(),
		isLoad:    in.Op.IsLoad(),
		needsPrio: in.Op.NeedsHighestPriority(),
	}
	m.control = m.class == isa.UnitNone
	srcs := in.Sources(m.srcs[:0]) // at most 2 sources for any format
	m.nsrc = uint8(len(srcs))
	for i, r := range srcs {
		m.srcSB[i] = sbIndex(r)
	}
	m.destSB = sbIndex(m.dest)
	return m
}

// predecode builds the metadata table for an instruction stream.
func predecode(prog []isa.Instruction) []insMeta {
	out := make([]insMeta, len(prog))
	for i, in := range prog {
		out[i] = buildMeta(in)
	}
	return out
}
