package core

// White-box check of the instruction queue buffer's representation: a
// slot's buffer is the access requirements a bind re-injected, followed by
// the stream positions [qpc, qpc+qn) of the bound frame's program or trace,
// and fetching resumes at qpc+qn.

import (
	"fmt"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/mem"
)

// TestQueueBufferInvariant drives the Run loop by hand and checks every
// running slot's queue buffer after every stepped cycle, across forks,
// data-absence traps that re-inject access requirements, a branchy loop,
// a four-copy trace replay, two fetch units and two-wide issue.
func TestQueueBufferInvariant(t *testing.T) {
	const branchy = `
		tid  r1
		li   r2, 12
	loop:	andi r3, r2, 1
		beqz r3, even
		addi r4, r4, 1
		j    next
	even:	addi r5, r5, 1
	next:	addi r2, r2, -1
		bnez r2, loop
		sw   r4, 100(r1)
		halt
	`
	program := func(src string, cfg Config, threads int) func(*testing.T) *Processor {
		return func(t *testing.T) *Processor {
			prog := asm.MustAssemble(src)
			m := mem.NewMemory(2048)
			if err := prog.InitMemory(m); err != nil {
				t.Fatal(err)
			}
			return startThreads(t, cfg, prog, m, threads)
		}
	}
	remote := func(cfg Config, threads int) func(*testing.T) *Processor {
		return func(t *testing.T) *Processor {
			return startThreads(t, cfg, remoteChaseProg(t), remoteChaseMem(), threads)
		}
	}
	cases := []struct {
		name  string
		build func(*testing.T) *Processor
		arb   bool // the case must re-inject access requirements
	}{
		{name: "forks", build: program(`
		ffork
		tid  r1
		sw   r1, 200(r1)
		halt
	`, Config{ThreadSlots: 4, StandbyStations: true}, 1)},
		{name: "remote-traps", arb: true,
			build: remote(Config{ThreadSlots: 1, ContextFrames: 4, StandbyStations: true}, 4)},
		{name: "remote-traps-wide", arb: true,
			build: remote(Config{ThreadSlots: 2, ContextFrames: 6, StandbyStations: true, IssueWidth: 2}, 6)},
		{name: "branchy", build: program(branchy, Config{ThreadSlots: 2, ContextFrames: 2}, 2)},
		{name: "branchy-two-fetch-units-wide",
			build: program(branchy, Config{ThreadSlots: 4, FetchUnits: 2, IssueWidth: 2, StandbyStations: true}, 4)},
		{name: "trace-x4", build: func(t *testing.T) *Processor {
			rec := recordInputs(t, vecSumSrc)
			p, err := NewTraceDriven(Config{ThreadSlots: 4, LoadStoreUnits: 2}, [][]TraceInput{rec, rec, rec, rec})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t)
			p.started = true
			arbEntries, inFlight := 0, 0
			for {
				if p.cycle >= p.cfg.MaxCycles {
					t.Fatalf("runaway at cycle %d", p.cycle)
				}
				if err := p.stepCycle(); err != nil {
					t.Fatal(err)
				}
				a, f := checkQueueBuffers(t, p)
				arbEntries += a
				inFlight += f
				if p.finished() {
					break
				}
				p.advanceCycle()
			}
			if tc.arb && arbEntries == 0 {
				t.Error("no slot ever held a re-injected access requirement; the check exercised nothing")
			}
			if inFlight == 0 {
				t.Error("no fetch was ever in flight at a check")
			}
		})
	}
}

// startThreads builds a processor and registers threads threads at pc 0.
func startThreads(t *testing.T, cfg Config, prog *asm.Program, m *mem.Memory, threads int) *Processor {
	t.Helper()
	p, err := New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threads; i++ {
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// checkQueueBuffers checks every running slot: its buffer holds the bound
// frame's outstanding access requirements that have not reached D2, in
// issue order, then the positions [qpc, qpc+qn) of the frame's stream, each
// decoding as the stream's instruction at that position; and a fetch in
// flight for the slot's generation starts at qpc+qn. It returns the
// re-injected entries and in-flight fetches it saw.
func checkQueueBuffers(t *testing.T, p *Processor) (arbEntries, inFlight int) {
	t.Helper()
	for _, s := range p.slots {
		if s.state != slotRunning {
			continue
		}
		at := fmt.Sprintf("cycle %d slot %d", p.cycle, s.id)
		f := p.frames[s.frame]
		n := p.streamLen(f)
		pending := f.arb.AppendPending(nil)
		if len(s.arb) > len(pending) {
			t.Fatalf("%s: %d re-injected entries, frame has %d requirements", at, len(s.arb), len(pending))
		}
		for i, req := range s.arb {
			if want := pending[len(pending)-len(s.arb)+i]; req != want {
				t.Fatalf("%s: entry %d is %+v, want the frame's requirement %+v", at, i, req, want)
			}
		}
		if s.qpc < 0 || s.qn < 0 || s.qpc+int64(s.qn) > n {
			t.Fatalf("%s: stream range [%d, %d+%d) outside the %d-entry stream", at, s.qpc, s.qpc, s.qn, n)
		}
		if s.d1n < 0 || s.d1n > len(s.arb)+s.qn || s.d1n > p.cfg.IssueWidth || s.buffered() > s.bufCap {
			t.Fatalf("%s: d1n %d over a buffer of %d+%d entries (capacity %d, width %d)",
				at, s.d1n, len(s.arb), s.qn, s.bufCap, p.cfg.IssueWidth)
		}
		for _, di := range s.d2 {
			if !di.fromARB && (len(s.arb) > 0 || di.pc >= s.qpc) {
				t.Fatalf("%s: D2 holds pc %d, which is not older than the buffer (qpc %d, %d requirements)",
					at, di.pc, s.qpc, len(s.arb))
			}
		}
		// Pop a copy of the slot's buffer: the entries decode would read.
		cp := *s
		cp.arb = append([]mem.AccessRequirement(nil), s.arb...)
		for i := 0; i < len(s.arb)+s.qn; i++ {
			got := p.popBuffer(&cp)
			if i < len(s.arb) {
				req := s.arb[i]
				if !got.fromARB || got.arbSeq != req.Seq || got.pc != req.PC || !got.ins.Same(p.prog[req.PC]) ||
					!got.ins.Same(req.Instr) || got.pre != &p.pre[req.PC] {
					t.Fatalf("%s: entry %d decodes as %+v, want requirement %+v", at, i, got, req)
				}
				continue
			}
			pc := s.qpc + int64(i-len(s.arb))
			ok := !got.fromARB && got.pc == pc
			if p.traceMode {
				rec := p.traces[f.traceID][pc]
				ok = ok && got.ins.Same(rec.Ins) && got.addr == rec.Addr && *got.pre == buildMeta(rec.Ins)
			} else {
				ok = ok && got.ins.Same(p.prog[pc]) && got.pre == &p.pre[pc]
			}
			if !ok {
				t.Fatalf("%s: buffer entry %d decodes as %+v, want stream position %d", at, i, got, pc)
			}
		}
		end := s.qpc + int64(s.qn)
		if fu := p.fetcherFor(s.id); fu.busy && fu.target == s.id && fu.gen == s.fetchGen {
			inFlight++
			if fu.pc0 != end || fu.pc1 <= fu.pc0 || fu.pc1 > n || s.buffered()+int(fu.pc1-fu.pc0) > s.bufCap {
				t.Fatalf("%s: fetch of [%d, %d) in flight, want one from qpc+qn = %d that fits the buffer (%d of %d used)",
					at, fu.pc0, fu.pc1, end, s.buffered(), s.bufCap)
			}
			end = fu.pc1
		}
		if s.fetchDone != (end >= n) {
			t.Fatalf("%s: fetchDone %v with fetching at %d of %d", at, s.fetchDone, end, n)
		}
		arbEntries += len(s.arb)
	}
	return arbEntries, inFlight
}
