package hirata

// Integration tests of the cross-run ledger against real simulations: the
// determinism guard (ISSUE 10 satellite 1) and the diff acceptance
// criterion (two recorded 8-slot ray-trace runs under different configs
// must diff with per-bucket deltas summing exactly to the slot-cycle
// delta, and re-recording must reproduce each content hash byte for byte).

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"hirata/internal/runledger"
)

// rayTraceRecord runs the small ray-trace workload on cfg with a ledger
// attached and returns the appended record's entry.
func rayTraceRecord(t *testing.T, led *RunLedger, tag string, cfg MTConfig) RunLedgerEntry {
	t.Helper()
	rt, err := BuildRayTrace(RayTraceConfig{Spheres: 4, Rays: 24})
	if err != nil {
		t.Fatal(err)
	}
	eff := cfg.Effective()
	m, err := rt.NewMemory(rt.Par, eff.ThreadSlots)
	if err != nil {
		t.Fatal(err)
	}
	before := led.Stats()
	SetRunLedger(led, tag)
	defer SetRunLedger(nil, "")
	if _, err := RunMT(cfg, rt.Par.Text, m); err != nil {
		t.Fatal(err)
	}
	if err := RunLedgerError(); err != nil {
		t.Fatal(err)
	}
	if got := led.Stats(); got.Appends != before.Appends+1 {
		t.Fatal("run was not recorded")
	}
	// On a dedup append the store does not grow; the matching record is the
	// one most recently stored (true for every use in these tests).
	entries := led.Entries()
	return entries[len(entries)-1]
}

// TestRunRecordDeterminism: recording the same (program, config, workload)
// twice must produce a byte-identical canonical record — the ledger dedups
// the rerun on its content hash. This is the cache-correctness certificate
// ROADMAP item 1's result cache rests on. (The recorded legacy-core
// results in testdata/legacy_core.golden.json pin the same ray-trace
// workload's Results across the retired second cycle core.)
func TestRunRecordDeterminism(t *testing.T) {
	led := NewRunLedger()
	base := MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}

	first := rayTraceRecord(t, led, "det", base)
	// Identical rerun: the ledger dedups it, proving byte identity.
	stats := led.Stats()
	again := rayTraceRecord(t, led, "det", base)
	if got := led.Stats(); got.Records != stats.Records || got.DedupHits != stats.DedupHits+1 {
		t.Fatalf("identical rerun did not dedup: before %+v, after %+v", stats, got)
	}
	if first.Hash != again.Hash || first.Record.Key != again.Record.Key {
		t.Errorf("rerun produced a different record: %s vs %s",
			runledger.ShortKey(first.Hash), runledger.ShortKey(again.Hash))
	}
}

// TestRunDiffAcceptance is the ISSUE acceptance criterion: record the
// 8-slot ray trace under two configurations (1 vs 2 load/store units,
// standby stations), diff them, and require the per-bucket CPI-stack
// deltas to sum exactly to the slot-cycle delta. Then re-record both runs
// and require identical content hashes.
func TestRunDiffAcceptance(t *testing.T) {
	led := NewRunLedger()
	cfgA := MTConfig{ThreadSlots: 8, LoadStoreUnits: 1, StandbyStations: true}
	cfgB := MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true}
	a := rayTraceRecord(t, led, "ls1", cfgA)
	b := rayTraceRecord(t, led, "ls2", cfgB)

	if a.Record.Result.Cycles == b.Record.Result.Cycles {
		t.Fatalf("configs produced equal cycle counts (%d); the diff would be vacuous", a.Record.Result.Cycles)
	}
	d, err := DiffRuns(a.Record, b.Record)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, bk := range d.Buckets {
		sum += bk.Delta
	}
	want := 8*int64(b.Record.Result.Cycles) - 8*int64(a.Record.Result.Cycles)
	if sum != want || d.SlotCycleDelta != want {
		t.Fatalf("bucket deltas sum to %d, SlotCycleDelta = %d, want %d", sum, d.SlotCycleDelta, want)
	}
	if d.CycleDelta != int64(b.Record.Result.Cycles)-int64(a.Record.Result.Cycles) {
		t.Fatalf("CycleDelta = %d", d.CycleDelta)
	}
	// The only changed canonical field is the load/store unit count.
	if len(d.Config) != 1 || d.Config[0].Name != "LoadStoreUnits" {
		t.Fatalf("config delta = %+v, want exactly LoadStoreUnits", d.Config)
	}

	// Re-record both runs into a fresh ledger: content hashes reproduce.
	led2 := NewRunLedger()
	if got := rayTraceRecord(t, led2, "ls1", cfgA); got.Hash != a.Hash {
		t.Errorf("re-recording run A produced %s, want %s", runledger.ShortKey(got.Hash), runledger.ShortKey(a.Hash))
	}
	if got := rayTraceRecord(t, led2, "ls2", cfgB); got.Hash != b.Hash {
		t.Errorf("re-recording run B produced %s, want %s", runledger.ShortKey(got.Hash), runledger.ShortKey(b.Hash))
	}
}

// runOptionCase is one combination of the run-option matrix. Options
// builds fresh instrumentation for each run on a machine of shape cfg.
type runOptionCase struct {
	Name    string
	Options func(cfg MTConfig) RunOptions
}

// runOptionCases is the run-option matrix every run path must honour
// alike: no options, each kind of instrumentation alone, and all at once.
var runOptionCases = []runOptionCase{
	{"none", func(MTConfig) RunOptions { return RunOptions{} }},
	{"collector", func(cfg MTConfig) RunOptions {
		return RunOptions{Observers: []Observer{NewCollector(cfg, CollectorOptions{MetricsInterval: 64})}}
	}},
	{"tracer", func(MTConfig) RunOptions {
		return RunOptions{Observers: []Observer{&TextTracer{W: io.Discard}}}
	}},
	{"all", func(cfg MTConfig) RunOptions {
		return RunOptions{
			Observers: []Observer{NewCollector(cfg, CollectorOptions{MetricsInterval: 64}), &TextTracer{W: io.Discard}},
		}
	}},
}

// TestRunRecordObservedModes runs every run-option combination on a
// program run and on a 3-copy ray-trace replay, each with a fresh ledger
// attached. Every combination must give the plain run's Result byte for
// byte and append exactly one record under the plain run's key. The record
// carries the exact CPI stack exactly when a Collector is attached (every
// slot row summing to the run's cycles); every Collector is finalized.
func TestRunRecordObservedModes(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Spheres: 4, Rays: 24})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTConfig{ThreadSlots: 4, StandbyStations: true}
	m, err := rt.NewMemory(rt.Seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordTrace(rt.Seq.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		run  func(RunOptions) (MTResult, error)
	}{
		{"program", func(opt RunOptions) (MTResult, error) {
			m, err := rt.NewMemory(rt.Par, cfg.ThreadSlots)
			if err != nil {
				return MTResult{}, err
			}
			return Run(cfg, rt.Par.Text, m, opt)
		}},
		{"replay", func(opt RunOptions) (MTResult, error) {
			return ReplayTraces(cfg, [][]TraceRecord{recs, recs, recs}, opt)
		}},
	}
	// record runs one simulation with a fresh ledger attached and returns
	// its Result as JSON and the one record it appended.
	record := func(t *testing.T, run func(RunOptions) (MTResult, error), opt RunOptions) (MTResult, []byte, RunLedgerEntry) {
		t.Helper()
		led := NewRunLedger()
		SetRunLedger(led, "modes")
		defer SetRunLedger(nil, "")
		res, err := run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunLedgerError(); err != nil {
			t.Fatal(err)
		}
		if st := led.Stats(); st.Appends != 1 || st.Records != 1 {
			t.Fatalf("run appended %d records (%d stored), want exactly 1", st.Appends, st.Records)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, js, led.Entries()[0]
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			_, plainJSON, plain := record(t, in.run, RunOptions{})
			for _, oc := range runOptionCases {
				opt := oc.Options(cfg)
				res, js, e := record(t, in.run, opt)
				if !bytes.Equal(js, plainJSON) {
					t.Errorf("%s: Result differs from the plain run's", oc.Name)
				}
				if e.Record.Key != plain.Record.Key {
					t.Errorf("%s: run keyed differently from the plain run", oc.Name)
				}
				var collectors int
				for _, o := range opt.Observers {
					if c, ok := o.(*Collector); ok {
						collectors++
						if st := c.CPIStack(); st.Cycles != res.Cycles {
							t.Errorf("%s: collector not finalized: CPI stack covers %d cycles, want %d", oc.Name, st.Cycles, res.Cycles)
						}
						// Only Finalize closes the trailing metrics interval.
						if ss := c.Samples(); len(ss) == 0 || ss[len(ss)-1].EndCycle != res.Cycles {
							t.Errorf("%s: collector not finalized: metrics series does not end at cycle %d", oc.Name, res.Cycles)
						}
					}
				}
				if got := e.Record.ExactCPI != nil; got != (collectors > 0) {
					t.Errorf("%s: record has exact CPI stack = %v, want %v", oc.Name, got, collectors > 0)
				} else if got {
					for s, row := range e.Record.ExactCPI.Slots {
						var sum int64
						for _, v := range row {
							sum += v
						}
						if sum != int64(res.Cycles) {
							t.Errorf("%s: exact CPI slot %d sums to %d, want %d", oc.Name, s, sum, res.Cycles)
						}
					}
				}
				// A record without optional sections is the plain record.
				plainRecord := e.Record.ExactCPI == nil
				if (e.Hash == plain.Hash) != plainRecord {
					t.Errorf("%s: record hash %s vs plain %s, want equal = %v", oc.Name,
						runledger.ShortKey(e.Hash), runledger.ShortKey(plain.Hash), plainRecord)
				}
			}
		})
	}
}
