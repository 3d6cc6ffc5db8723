package hirata

// Cross-run observability: the facade glue between the simulation runners
// and internal/runledger. A process attaches one ledger with SetRunLedger;
// from then on every completed Run, RunMT or ReplayTraces simulation — a
// hirata-sim run, each hirata-bench experiment cell, every sweep worker,
// every -explore re-simulation — is recorded as a content-addressed
// RunRecord. The hook digests the run's inputs *before* the simulation
// starts (a program run mutates the memory image) and commits only
// successful runs, so aborted or erroring simulations never pollute the
// ledger.

import (
	"sync"

	"hirata/internal/obs"
	"hirata/internal/runledger"
)

// Cross-run ledger types (see internal/runledger and the "Cross-run
// observability" section of docs/OBSERVABILITY.md).
type (
	// RunLedger is an append-only, content-addressed store of run records.
	RunLedger = runledger.Ledger
	// RunRecord is one recorded simulation: input identity (run key),
	// result metrics, CPI stack, and optional exact stack and bounds.
	RunRecord = runledger.RunRecord
	// RunLedgerEntry is one stored record with its content address.
	RunLedgerEntry = runledger.Entry
	// RunLedgerStats summarises a ledger for /metrics.
	RunLedgerStats = runledger.Stats
	// RunDiff attributes the cycle delta between two recorded runs exactly
	// across CPI-stack buckets and per-class utilization.
	RunDiff = runledger.Diff
	// RunShift is one flagged cycle-count change in a ledger lineage.
	RunShift = runledger.Shift
	// RunsSource serves a ledger on the observability HTTP endpoints.
	RunsSource = obs.RunsSource
)

// OpenRunLedger opens (creating if absent) a ledger file, hash-verifying
// every existing record.
func OpenRunLedger(path string) (*RunLedger, error) { return runledger.Open(path) }

// NewRunLedger returns an in-memory ledger (nothing written to disk).
func NewRunLedger() *RunLedger { return runledger.NewMemory() }

// DiffRuns computes the exact cycle-delta attribution between two records.
func DiffRuns(a, b *RunRecord) (*RunDiff, error) { return runledger.Compute(a, b) }

// recorder is the process-wide run recorder SetRunLedger installs.
var recorder struct {
	mu  sync.Mutex
	led *runledger.Ledger
	tag string
	err error // last append failure, if any
}

// SetRunLedger attaches a ledger to every subsequent simulation in this
// process; records carry tag as their lineage label. A nil ledger
// detaches. Recording is deliberately out-of-band: a ledger failure never
// fails the simulation (check RunLedgerError at exit).
func SetRunLedger(l *RunLedger, tag string) {
	recorder.mu.Lock()
	recorder.led, recorder.tag, recorder.err = l, tag, nil
	recorder.mu.Unlock()
}

// RunLedgerError returns the most recent recording failure since the
// ledger was attached, or nil. CLIs surface this at exit.
func RunLedgerError() error {
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	return recorder.err
}

// recording is a run's pending ledger record: the ledger and tag attached
// when the run began, and its digested inputs. Without a ledger it records
// nothing.
type recording struct {
	led  *runledger.Ledger
	tag  string
	pend *runledger.Pending
}

// recordBegin snapshots the attached ledger and, when one is attached,
// digests the run inputs with begin. It must run before the simulation: a
// program run mutates its memory image.
func recordBegin(begin func() *runledger.Pending) recording {
	recorder.mu.Lock()
	r := recording{led: recorder.led, tag: recorder.tag}
	recorder.mu.Unlock()
	if r.led != nil {
		r.pend = begin()
	}
	return r
}

// commit appends the completed run's record with the optional section
// opt provides, before hashing: the first Collector's exact CPI stack.
func (r recording) commit(res MTResult, opt RunOptions) {
	if r.led == nil {
		return
	}
	rec := r.pend.Finish(res, r.tag)
	for _, o := range opt.Observers {
		if c, ok := o.(*Collector); ok {
			AttachExactCPI(rec, c)
			break
		}
	}
	if _, _, err := r.led.Append(rec); err != nil {
		recorder.mu.Lock()
		recorder.err = err
		recorder.mu.Unlock()
	}
}

// AttachExactCPI copies a finalized collector's exact per-slot CPI stack
// into the record, replacing the coarser stall-derived attribution for
// diffs. The copy is refused (no-op) unless every slot's buckets sum
// exactly to the run's cycles — the invariant diff exactness rests on.
func AttachExactCPI(rec *RunRecord, c *Collector) {
	st := c.CPIStack()
	if st.Cycles != rec.Result.Cycles || len(st.Slots) == 0 {
		return
	}
	names := make([]string, int(obs.NumCPIBuckets))
	for b := 0; b < int(obs.NumCPIBuckets); b++ {
		names[b] = obs.CPIBucket(b).String()
	}
	rows := make([][]int64, len(st.Slots))
	for i, s := range st.Slots {
		row := make([]int64, int(obs.NumCPIBuckets))
		var sum int64
		for b := 0; b < int(obs.NumCPIBuckets); b++ {
			row[b] = int64(s.Cycles[b])
			sum += row[b]
		}
		if sum != int64(rec.Result.Cycles) {
			return
		}
		rows[i] = row
	}
	rec.SetExactCPI(names, rows)
}

// AttachStaticBounds computes and attaches the static lower-bound
// certificate for the recorded program on the recorded machine.
func AttachStaticBounds(rec *RunRecord, cfg MTConfig, text []Instruction, startPCs ...int64) {
	b := StaticBounds(cfg, text, startPCs...)
	rec.SetBounds(int64(b.DepBound), int64(b.ResourceBound), int64(b.IssueBound), int64(b.Bound), b.Unbounded)
}
