package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hirata/internal/asm"
	"hirata/internal/core"
	"hirata/internal/isa"
)

const sampleSrc = `
	.data
	.org 20
vec:	.word 3, 1, 4, 1, 5, 9, 2, 6
out:	.space 2
	.text
	li   r1, 0
	li   r2, 0
	la   r3, vec
loop:	lw   r4, 0(r3)
	add  r2, r2, r4
	addi r3, r3, 1
	addi r1, r1, 1
	slti r5, r1, 8
	bnez r5, loop
	sw   r2, out(r0)
	itof f1, r2
	fsqrt f2, f1
	fsw  f2, out+1(r0)
	halt
`

func record(t testing.TB) ([]Record, *asm.Program) {
	t.Helper()
	prog := asm.MustAssemble(sampleSrc)
	m, err := prog.NewMemory(32)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordProgram(prog.Text, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return recs, prog
}

func TestRecordProgram(t *testing.T) {
	recs, _ := record(t)
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	last := recs[len(recs)-1]
	if last.Ins.Op != isa.HALT {
		t.Errorf("trace does not end with halt: %v", last.Ins)
	}
	// Branch outcomes: the loop branch is taken 7 times, untaken once.
	taken, untaken := 0, 0
	for _, r := range recs {
		if r.Ins.Op == isa.BNEZ {
			if r.Taken {
				taken++
			} else {
				untaken++
			}
		}
	}
	if taken != 7 || untaken != 1 {
		t.Errorf("branch outcomes = %d taken / %d untaken, want 7/1", taken, untaken)
	}
	// Load addresses walk the vector.
	var addrs []int64
	for _, r := range recs {
		if r.Ins.Op == isa.LW {
			addrs = append(addrs, r.Addr)
		}
	}
	if len(addrs) != 8 || addrs[0] != 20 || addrs[7] != 27 {
		t.Errorf("load addresses wrong: %v", addrs)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs, _ := record(t)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("length %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

// Property: the codec round-trips arbitrary well-formed records.
func TestCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mkRec := func() Record {
		r := Record{PC: rng.Int63n(1 << 30)}
		// Unused operand slots must be NoReg: the codec round-trips the
		// canonical (decoder-produced) form of an instruction.
		switch rng.Intn(3) {
		case 0:
			r.Ins = isa.Instruction{Op: isa.ADD, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3}
		case 1:
			r.Ins = isa.Instruction{Op: isa.LW, Rd: isa.R4, Rs1: isa.R5, Rs2: isa.NoReg, Imm: int32(rng.Intn(100))}
			r.Addr = rng.Int63n(1<<40) - 1<<39
		default:
			r.Ins = isa.Instruction{Op: isa.BEQZ, Rs1: isa.R1, Rs2: isa.NoReg, Rd: isa.NoReg, Imm: int32(rng.Intn(1000))}
			r.Taken = rng.Intn(2) == 0
		}
		return r
	}
	f := func() bool {
		n := rng.Intn(50)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = mkRec()
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// hugeCount is a header claiming 1<<30 records, the most Read accepts,
// followed by none of them.
const hugeCount = "HTRC\x01\x80\x80\x80\x80\x04"

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("HTRC\x02"),         // bad version
		[]byte("HTRC\x01\xff"),     // truncated count
		[]byte("HTRC\x01\x02\x00"), // truncated records
		[]byte(hugeCount),          // count far beyond the file
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded", c)
		}
	}
	// The huge count must not be trusted for allocation: the file fails
	// at its first missing record.
	if _, err := Read(strings.NewReader(hugeCount)); err == nil || !strings.HasPrefix(err.Error(), "trace: record 0: ") {
		t.Errorf("Read(huge count) error = %v, want a record 0 error", err)
	}
}

// FuzzRead: any byte string yields either records or an error, never a
// panic; the huge-count seed guards against header-sized allocation.
func FuzzRead(f *testing.F) {
	recs, _ := record(f)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for _, n := range []int{0, 4, 5, 6, 7, 12, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	f.Add([]byte(hugeCount))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			if got != nil {
				t.Errorf("Read returned %d records with error %v", len(got), err)
			}
			return
		}
		// Every record read back re-encodes: Read accepts only decodable
		// instruction words.
		if err := Write(io.Discard, got); err != nil {
			t.Errorf("records from Read do not re-encode: %v", err)
		}
	})
}

// TestReadRejectsTrailingGarbage: a valid trace followed by junk is a
// corrupt file, not a valid trace — Read must fail with a positioned error
// rather than silently discard the extra bytes.
func TestReadRejectsTrailingGarbage(t *testing.T) {
	recs, _ := record(t)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	for _, junk := range [][]byte{{0x00}, {0xde, 0xad, 0xbe, 0xef}, bytes.Repeat([]byte{0x55}, 1000)} {
		corrupt := append(append([]byte{}, buf.Bytes()...), junk...)
		_, err := Read(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("Read accepted %d trailing garbage byte(s)", len(junk))
		}
		want := fmt.Sprintf("trace: %d byte(s) of trailing garbage after record %d", len(junk), len(recs))
		if err.Error() != want {
			t.Errorf("error = %q, want %q", err, want)
		}
	}
	// The clean file still reads.
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("clean trace rejected: %v", err)
	}
}

func TestStats(t *testing.T) {
	recs, _ := record(t)
	mix := Stats(recs)
	if mix.Total != uint64(len(recs)) {
		t.Errorf("total = %d, want %d", mix.Total, len(recs))
	}
	if mix.Loads != 8 || mix.Stores != 2 {
		t.Errorf("loads/stores = %d/%d, want 8/2", mix.Loads, mix.Stores)
	}
	if mix.Branches != 8 || mix.Taken != 7 {
		t.Errorf("branches/taken = %d/%d, want 8/7", mix.Branches, mix.Taken)
	}
	if mix.MemFraction() <= 0 || mix.MemFraction() >= 1 {
		t.Errorf("memory fraction = %g", mix.MemFraction())
	}
	if s := mix.String(); len(s) == 0 {
		t.Error("empty Stats string")
	}
}

// toInputs converts records for core replay.
func toInputs(recs []Record) []core.TraceInput {
	out := make([]core.TraceInput, len(recs))
	for i, r := range recs {
		out[i] = core.TraceInput{Ins: r.Ins, Addr: r.Addr}
	}
	return out
}

// TestTraceDrivenMatchesExecutionDriven is the key equivalence property:
// replaying a recorded trace must take exactly as many cycles as executing
// the program, for any machine shape.
func TestTraceDrivenMatchesExecutionDriven(t *testing.T) {
	recs, prog := record(t)
	for _, cfg := range []core.Config{
		{ThreadSlots: 1, StandbyStations: true},
		{ThreadSlots: 1, StandbyStations: false},
		{ThreadSlots: 1, LoadStoreUnits: 2, StandbyStations: true},
	} {
		m, err := prog.NewMemory(32)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := core.New(cfg, prog.Text, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := pe.StartThread(0); err != nil {
			t.Fatal(err)
		}
		resExec, err := pe.Run()
		if err != nil {
			t.Fatal(err)
		}

		pt, err := core.NewTraceDriven(cfg, [][]core.TraceInput{toInputs(recs)})
		if err != nil {
			t.Fatal(err)
		}
		resTrace, err := pt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if resTrace.Cycles != resExec.Cycles {
			t.Errorf("cfg %+v: trace-driven %d cycles != execution-driven %d",
				cfg, resTrace.Cycles, resExec.Cycles)
		}
		if resTrace.Instructions != resExec.Instructions {
			t.Errorf("cfg %+v: instruction counts differ: %d != %d",
				cfg, resTrace.Instructions, resExec.Instructions)
		}
	}
}

// TestTraceDrivenMultithreaded replays several traces simultaneously and
// checks basic throughput behaviour.
func TestTraceDrivenMultithreaded(t *testing.T) {
	recs, _ := record(t)
	in := toInputs(recs)
	run := func(slots, copies int) uint64 {
		traces := make([][]core.TraceInput, copies)
		for i := range traces {
			traces[i] = in
		}
		p, err := core.NewTraceDriven(core.Config{
			ThreadSlots:     slots,
			LoadStoreUnits:  2,
			StandbyStations: true,
		}, traces)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1 := run(1, 4) // four copies time-share one slot
	c4 := run(4, 4) // four copies run simultaneously
	if c4 >= c1 {
		t.Errorf("multithreaded replay not faster: %d >= %d", c4, c1)
	}
}

func TestTraceDrivenRejectsSpecials(t *testing.T) {
	bad := []core.TraceInput{{Ins: isa.Instruction{Op: isa.FFORK}}}
	if _, err := core.NewTraceDriven(core.Config{ThreadSlots: 1}, [][]core.TraceInput{bad}); err == nil {
		t.Error("ffork accepted in a trace")
	}
	// Each distinct trace is validated, and an error names the trace it
	// was found in.
	recs, _ := record(t)
	good := toInputs(recs)
	bad2 := append(toInputs(recs[:3]), core.TraceInput{Ins: isa.Instruction{Op: isa.KILL}})
	_, err := core.NewTraceDriven(core.Config{ThreadSlots: 2}, [][]core.TraceInput{good, bad2, good})
	if want := "core: trace 1 record 3: kill cannot be replayed from a trace"; err == nil || err.Error() != want {
		t.Errorf("kill in trace 1: error = %v, want %q", err, want)
	}
	if _, err := core.NewTraceDriven(core.Config{ThreadSlots: 1}, nil); err == nil {
		t.Error("empty trace set accepted")
	}
	if _, err := core.NewTraceDriven(core.Config{ThreadSlots: 1}, [][]core.TraceInput{{}}); err == nil {
		t.Error("empty trace accepted")
	}
}
