package hirata

// Integration tests of the cross-run ledger against real simulations: the
// determinism guard (ISSUE 10 satellite 1) and the diff acceptance
// criterion (two recorded 8-slot ray-trace runs under different configs
// must diff with per-bucket deltas summing exactly to the slot-cycle
// delta, and re-recording must reproduce each content hash byte for byte).

import (
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

// TestRunRecordObservedModes: the observed and host-profiled run paths
// record too, sharing the plain run's key; the observed record carries the
// exact CPI stack and every slot row still sums to the run's cycles.
func TestRunRecordObservedModes(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Spheres: 4, Rays: 24})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTConfig{ThreadSlots: 4, StandbyStations: true}
	led := NewRunLedger()

	plain := rayTraceRecord(t, led, "modes", cfg)

	m, err := rt.NewMemory(rt.Par, 4)
	if err != nil {
		t.Fatal(err)
	}
	SetRunLedger(led, "modes")
	defer SetRunLedger(nil, "")
	c := NewCollector(cfg, CollectorOptions{})
	res, err := RunMTObserved(cfg, rt.Par.Text, m, []Observer{c})
	if err != nil {
		t.Fatal(err)
	}
	entries := led.Entries()
	observed := entries[len(entries)-1]
	if observed.Record.Key != plain.Record.Key {
		t.Error("observed run keyed differently from the plain run")
	}
	if observed.Hash == plain.Hash {
		t.Error("observed record deduped against the plain record despite the exact CPI section")
	}
	if observed.Record.ExactCPI == nil {
		t.Fatal("observed record lacks the exact CPI stack")
	}
	for s, row := range observed.Record.ExactCPI.Slots {
		var sum int64
		for _, v := range row {
			sum += v
		}
		if sum != int64(res.Cycles) {
			t.Errorf("exact CPI slot %d sums to %d, want %d", s, sum, res.Cycles)
		}
	}

	// Host-profiled runs attach the profile artifact digest.
	m2, err := rt.NewMemory(rt.Par, 4)
	if err != nil {
		t.Fatal(err)
	}
	prof := NewHostProfiler(HostProfilerOptions{})
	if _, err := RunMTHostProfiled(cfg, rt.Par.Text, m2, prof); err != nil {
		t.Fatal(err)
	}
	entries = led.Entries()
	profiled := entries[len(entries)-1]
	if profiled.Record.Key != plain.Record.Key {
		t.Error("profiled run keyed differently from the plain run")
	}
	if profiled.Record.HostProfileDigest == "" {
		t.Error("profiled record lacks the host-profile digest")
	}

	// Every record agrees on the simulated outcome regardless of mode.
	for _, e := range []RunLedgerEntry{plain, observed, profiled} {
		if e.Record.Result.Cycles != res.Cycles {
			t.Errorf("record %s reports %d cycles, want %d",
				runledger.ShortKey(e.Hash), e.Record.Result.Cycles, res.Cycles)
		}
	}
}
