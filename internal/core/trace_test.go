package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/exec"
	"hirata/internal/isa"
)

// vecSumSrc sums a vector: loads with recorded addresses, a loop branch,
// and a store, so a trace of it exercises every replay path.
const vecSumSrc = `
	.data
	.org 20
vec:	.word 3, 1, 4, 1, 5, 9, 2, 6
sum:	.space 1
	.text
	li   r1, 8
	la   r2, vec
loop:	lw   r3, 0(r2)
	add  r4, r4, r3
	addi r2, r2, 1
	addi r1, r1, -1
	bnez r1, loop
	sw   r4, sum(r0)
	halt
`

// recordInputs runs src on the functional interpreter and returns its
// dynamic instruction stream as trace-replay input.
func recordInputs(t *testing.T, src string) []TraceInput {
	t.Helper()
	prog := asm.MustAssemble(src)
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	ip := exec.NewInterp(prog.Text, m)
	var out []TraceInput
	for {
		in := prog.Text[ip.PC]
		rec := TraceInput{Ins: in}
		if in.Op.IsMem() {
			rec.Addr = ip.Regs.ReadInt(in.Rs1) + int64(in.Imm)
		}
		out = append(out, rec)
		running, err := ip.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !running {
			return out
		}
	}
}

// TestTraceInterning: NewTraceDriven predecodes each distinct instruction
// once and indexes each distinct trace once. Copies of a trace share one
// index; a shorter re-slice of the same records is a different trace; and
// sharing changes no result.
func TestTraceInterning(t *testing.T) {
	rec := recordInputs(t, vecSumSrc)
	distinct := map[isa.Instruction]bool{}
	for _, r := range rec {
		distinct[r.Ins] = true
	}
	if len(distinct) >= len(rec) {
		t.Fatalf("trace has %d distinct instructions in %d records; want repeats", len(distinct), len(rec))
	}
	const slots = 4
	cfg := Config{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true}
	run := func(traces [][]TraceInput) (*Processor, []byte) {
		t.Helper()
		p, err := NewTraceDriven(cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return p, js
	}

	shared := make([][]TraceInput, slots)
	separate := make([][]TraceInput, slots)
	for i := range shared {
		shared[i] = rec
		separate[i] = append([]TraceInput(nil), rec...)
	}
	ps, sharedJSON := run(shared)
	pd, separateJSON := run(separate)
	for _, p := range []*Processor{ps, pd} {
		if len(p.prog) != len(distinct) || len(p.pre) != len(distinct) {
			t.Errorf("prog/pre hold %d/%d entries, want %d distinct instructions", len(p.prog), len(p.pre), len(distinct))
		}
	}
	for i := 1; i < slots; i++ {
		if &ps.traceIdx[i][0] != &ps.traceIdx[0][0] {
			t.Errorf("copy %d of one trace has its own index", i)
		}
		if &pd.traceIdx[i][0] == &pd.traceIdx[0][0] {
			t.Errorf("separately allocated trace %d shares an index", i)
		}
	}
	if !bytes.Equal(sharedJSON, separateJSON) {
		t.Errorf("shared copies and separate copies give different results:\n%s\n%s", sharedJSON, separateJSON)
	}
	for i, r := range rec {
		if got := ps.prog[ps.traceIdx[0][i]]; !got.Same(r.Ins) {
			t.Fatalf("record %d indexes %v, want %v", i, got, r.Ins)
		}
	}

	short := rec[:len(rec)-1]
	p, err := NewTraceDriven(cfg, [][]TraceInput{rec, short})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.traceIdx[1]) != len(short) || &p.traceIdx[1][0] == &p.traceIdx[0][0] {
		t.Errorf("shorter re-slice treated as a copy: index length %d, want %d", len(p.traceIdx[1]), len(short))
	}
}
