package runledger

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// synthRecord fabricates a record from a synthetic Result: slots slots, the
// given cycle count, a fixed stall pattern scaled per slot so derived
// stacks are nontrivial. cfg mutators keep run keys distinct when needed.
func synthRecord(t *testing.T, tag string, cfg core.Config, cycles uint64) *RunRecord {
	t.Helper()
	m := mem.NewMemory(16)
	m.SetInt(0, 42)
	pend := Begin(cfg, []isa.Instruction{isa.Nop(), isa.Nop()}, m, nil)
	eff := cfg.Effective()
	slots := make([]core.SlotStat, eff.ThreadSlots)
	for s := range slots {
		st := core.SlotStat{Issued: cycles / 4}
		st.Stalls[core.StallData] = cycles / 8
		st.Stalls[core.StallEmpty] = uint64(s) * 2
		slots[s] = st
	}
	res := core.Result{
		Cycles:       cycles,
		Instructions: cycles / 2,
		Switches:     3,
		Units: []core.UnitStat{
			{Class: isa.UnitIntALU, Index: 0, Invocations: cycles / 2, BusyCycles: cycles / 2},
			{Class: isa.UnitLoadStore, Index: 0, Invocations: cycles / 8, BusyCycles: cycles / 4},
		},
		Slots: slots,
	}
	return pend.Finish(res, tag)
}

func TestLedgerAppendOpenVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.ledger")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recA := synthRecord(t, "a", core.Config{ThreadSlots: 2}, 1000)
	recB := synthRecord(t, "b", core.Config{ThreadSlots: 4}, 2000)
	hashA, dup, err := l.Append(recA)
	if err != nil || dup {
		t.Fatalf("Append A: hash=%s dup=%v err=%v", hashA, dup, err)
	}
	if _, dup, _ := l.Append(recB); dup {
		t.Fatal("Append B reported dup")
	}
	// Identical content dedups without growing the store or the file.
	if h, dup, err := l.Append(synthRecord(t, "a", core.Config{ThreadSlots: 2}, 1000)); err != nil || !dup || h != hashA {
		t.Fatalf("duplicate Append: hash=%s dup=%v err=%v (want %s, true)", h, dup, err, hashA)
	}
	st := l.Stats()
	if st.Records != 2 || st.Keys != 2 || st.Appends != 3 || st.DedupHits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Reopen: hash-verified load reproduces the store.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 2 {
		t.Fatalf("reopened ledger has %d records, want 2", l2.Len())
	}
	got, err := l2.Find(hashA[:10])
	if err != nil {
		t.Fatal(err)
	}
	if got.Record.Tag != "a" || got.Record.Result.Cycles != 1000 {
		t.Fatalf("reloaded record = tag %q cycles %d", got.Record.Tag, got.Record.Result.Cycles)
	}
	wantHash, err := got.Record.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if wantHash != hashA {
		t.Fatalf("reloaded record re-hashes to %s, stored %s", wantHash, hashA)
	}

	// A flipped payload byte fails verification at open.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(data), `"cycles":1000`, `"cycles":1001`, 1)
	if corrupt == string(data) {
		t.Fatal("corruption target not found in ledger file")
	}
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("Open(corrupt) = %v, want content hash mismatch", err)
	}
}

// TestLedgerOpensV1Records: a ledger of v1 records still opens, also when
// a record carries a section the format has since dropped. Open hashes the
// stored bytes, and decoding ignores fields RunRecord no longer has.
func TestLedgerOpensV1Records(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "recorded.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal([]byte(strings.SplitN(string(data), "\n", 2)[0]), &env); err != nil {
		t.Fatal(err)
	}
	payload := strings.TrimSuffix(string(env.Record), "}") + `,"dropped_section":"deadbeef"}`
	line, err := json.Marshal(envelope{Hash: digestBytes([]byte(payload)), Record: json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.ledger")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	es := l.Entries()
	if len(es) != 1 || es[0].Record.Format != "hirata-runrecord-v1" || es[0].Record.Result.Cycles == 0 {
		t.Fatalf("opened %d records, want the one v1 record: %+v", len(es), es)
	}
}

func TestLedgerFindSelectors(t *testing.T) {
	l := NewMemory()
	recA := synthRecord(t, "a", core.Config{ThreadSlots: 2}, 1000)
	recB := synthRecord(t, "", core.Config{ThreadSlots: 2}, 1000)
	recB.Bounds = &BoundsRef{Bound: 7} // same key as A, different content
	if _, _, err := l.Append(recA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(recB); err != nil {
		t.Fatal(err)
	}
	if recA.Key != recB.Key {
		t.Fatal("same inputs produced different run keys")
	}

	// A key prefix spanning both records is one identity; the newest wins.
	e, err := l.Find(recA.Key[:12])
	if err != nil {
		t.Fatal(err)
	}
	if e.Record.Bounds == nil {
		t.Error("key-prefix Find did not return the newest record of the key")
	}

	// Full hash resolves the older record precisely.
	hashA, _ := recA.ContentHash()
	e, err = l.Find(hashA)
	if err != nil {
		t.Fatal(err)
	}
	if e.Record.Tag != "a" {
		t.Errorf("hash Find returned tag %q", e.Record.Tag)
	}

	if _, err := l.Find("zzzz"); err == nil {
		t.Error("Find of absent selector succeeded")
	}
	if _, err := l.Find(""); err == nil {
		t.Error("Find of empty selector succeeded")
	}

	// A selector spanning two distinct run keys is ambiguous.
	recC := synthRecord(t, "c", core.Config{ThreadSlots: 8}, 500)
	if _, _, err := l.Append(recC); err != nil {
		t.Fatal(err)
	}
	common := commonPrefix(recA.Key, recC.Key)
	if common != "" {
		if _, err := l.Find(common); err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("Find(%q) = %v, want ambiguity error", common, err)
		}
	}
}

func commonPrefix(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// TestRecordByteStability: Begin/Finish over identical inputs must produce
// byte-identical canonical records (and therefore equal content hashes) —
// the foundation of both dedup and the cache-correctness argument.
func TestRecordByteStability(t *testing.T) {
	mk := func() *RunRecord {
		return synthRecord(t, "stable", core.Config{ThreadSlots: 2, StandbyStations: true}, 4096)
	}
	a, b := mk(), mk()
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatalf("identical runs serialized differently:\n%s\nvs\n%s", ca, cb)
	}
}

// TestRunKeySensitivity: the run key must move with every input and ignore
// the result-neutral knobs and the tag.
func TestRunKeySensitivity(t *testing.T) {
	text := []isa.Instruction{isa.Nop(), isa.Nop()}
	base := func() *Pending {
		return Begin(core.Config{ThreadSlots: 2}, text, mem.NewMemory(16), nil)
	}
	key := base().Key()
	if base().Key() != key {
		t.Fatal("run key is not deterministic")
	}

	// Config change moves the key.
	if Begin(core.Config{ThreadSlots: 4}, text, mem.NewMemory(16), nil).Key() == key {
		t.Error("config change did not move the run key")
	}
	// Result-neutral knob does not.
	neutral := core.Config{ThreadSlots: 2, DisableCycleSkip: true, StrictVerify: true, MaxCycles: 999}
	if Begin(neutral, text, mem.NewMemory(16), nil).Key() != key {
		t.Error("result-neutral knobs moved the run key")
	}
	// Program change moves the key.
	if Begin(core.Config{ThreadSlots: 2}, []isa.Instruction{isa.Nop()}, mem.NewMemory(16), nil).Key() == key {
		t.Error("program change did not move the run key")
	}
	// Memory image change moves the key.
	m := mem.NewMemory(16)
	m.SetInt(3, 7)
	if Begin(core.Config{ThreadSlots: 2}, text, m, nil).Key() == key {
		t.Error("memory image change did not move the run key")
	}
	// Remote region parameters move the key.
	if Begin(core.Config{ThreadSlots: 2}, text, mem.NewMemoryWithRemote(16, 8, 50), nil).Key() == key {
		t.Error("remote region did not move the run key")
	}
	// Start PCs move the key; the implicit single thread at 0 does not.
	if Begin(core.Config{ThreadSlots: 2}, text, mem.NewMemory(16), []int64{0, 1}).Key() == key {
		t.Error("start PCs did not move the run key")
	}
	if Begin(core.Config{ThreadSlots: 2}, text, mem.NewMemory(16), []int64{0}).Key() != key {
		t.Error("explicit [0] and implicit start PCs keyed differently")
	}
	// The tag is presentation, not identity.
	p := base()
	if p.Finish(core.Result{Cycles: 1}, "tagged").Key != key {
		t.Error("tag leaked into the run key")
	}
}

// TestTraceRunKeySensitivity: a trace replay's run key moves with every
// record's instruction and address, the number of threads and the config,
// ignores the result-neutral knobs, and does not depend on whether copies
// share one slice. It never equals a program run's key.
func TestTraceRunKeySensitivity(t *testing.T) {
	trace := func(addr int64) []core.TraceInput {
		return []core.TraceInput{{Ins: isa.Nop()}, {Ins: isa.Nop(), Addr: addr}}
	}
	cfg := core.Config{ThreadSlots: 2}
	shared := trace(0)
	p := BeginTraces(cfg, [][]core.TraceInput{shared, shared})
	key := p.Key()
	if got := BeginTraces(cfg, [][]core.TraceInput{trace(0), trace(0)}).Key(); got != key {
		t.Error("shared and separately allocated copies keyed differently")
	}
	if p.program.Encoding != "trace-v1" || p.program.Words != 4 {
		t.Errorf("program ref = %+v, want trace-v1 over 4 records", p.program)
	}
	for name, other := range map[string]*Pending{
		"address":     BeginTraces(cfg, [][]core.TraceInput{shared, trace(1)}),
		"instruction": BeginTraces(cfg, [][]core.TraceInput{shared, {{Ins: isa.Nop()}, {Ins: isa.Instruction{Op: isa.HALT}}}}),
		"threads":     BeginTraces(cfg, [][]core.TraceInput{shared}),
		"config":      BeginTraces(core.Config{ThreadSlots: 4}, [][]core.TraceInput{shared, shared}),
		"program run": Begin(cfg, []isa.Instruction{isa.Nop(), isa.Nop()}, nil, nil),
	} {
		if other.Key() == key {
			t.Errorf("%s change did not move the run key", name)
		}
	}
	neutral := core.Config{ThreadSlots: 2, DisableCycleSkip: true, StrictVerify: true, MaxCycles: 999}
	if BeginTraces(neutral, [][]core.TraceInput{shared, shared}).Key() != key {
		t.Error("result-neutral knobs moved the run key")
	}
}

// TestDerivedStackSumsToCycles: every slot row of the stall-derived stack
// must sum exactly to the run's cycle count — the property diff exactness
// rests on.
func TestDerivedStackSumsToCycles(t *testing.T) {
	rec := synthRecord(t, "", core.Config{ThreadSlots: 4}, 777)
	for s, row := range rec.Stack.Slots {
		var sum int64
		for _, v := range row {
			sum += v
		}
		if sum != int64(rec.Result.Cycles) {
			t.Errorf("slot %d stack sums to %d, want %d", s, sum, rec.Result.Cycles)
		}
	}
	if len(rec.Stack.Buckets) != len(stallBucketNames) {
		t.Errorf("stack has %d buckets, want %d", len(rec.Stack.Buckets), len(stallBucketNames))
	}
}
