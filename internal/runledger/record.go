// Package runledger is the cross-run observability substrate: an
// append-only, content-addressed store of completed simulation runs.
//
// Every record is keyed twice:
//
//   - the run key identifies the *inputs*: hash(program bytes, initial
//     memory image, start PCs, canonical machine configuration), or for a
//     trace replay hash(each thread's trace records, canonical machine
//     configuration). The simulator is deterministic — the differential
//     suites prove quiescent skipping and observed runs produce
//     bit-identical Results, and the legacy-core golden
//     (testdata/legacy_core.golden.json at the repository root) pins
//     Results across the retired second cycle core — so the run key is a
//     correct cache key: equal keys imply equal outputs. ROADMAP item 1's
//     result cache keys on exactly this.
//   - the content hash identifies the *record*: hash of the canonical
//     serialized payload (inputs + result metrics + cycle stack + optional
//     exact CPI stack and static bounds). Re-recording
//     the same run in the same mode reproduces the content hash byte for
//     byte; the determinism guard in the root test suite asserts this.
//
// On top of the store, diff.go attributes the cycle delta between two runs
// exactly across CPI-stack buckets and per-class utilization (the paper's
// U = N·L/T), and regress.go walks a ledger's lineages flagging cycle-count
// shifts. cmd/hirata-report is the CLI; the /runs
// endpoints of internal/obs serve a live ledger.
package runledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"hirata/internal/buildinfo"
	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/mem"
)

// Format versions. Bump recordFormat when the payload schema changes and
// keyFormat when anything hashed into the run key (including the canonical
// config encoding, see internal/core/canonical.go) changes meaning.
const (
	recordFormat = "hirata-runrecord-v2"
	keyFormat    = "hirata-run-key-v1"
)

// ProgramRef is the content identity of the simulated instruction text.
type ProgramRef struct {
	Words    int    `json:"words"`
	Encoding string `json:"encoding"` // "binary-v1" (isa.EncodeProgram) or "govalue-v1" fallback
	Digest   string `json:"digest"`   // sha256 hex of the encoded program
}

// WorkloadRef pins the workload instantiation: the initial data-memory
// image and the thread start PCs. Together with the program text this is
// the complete input of an execution-driven simulation.
type WorkloadRef struct {
	MemWords      int64   `json:"mem_words"`
	MemDigest     string  `json:"mem_digest"` // sha256 hex of the pre-run image
	RemoteBase    int64   `json:"remote_base"`
	RemoteLatency int     `json:"remote_latency"`
	StartPCs      []int64 `json:"start_pcs"`
}

// ConfigRef is the canonical machine configuration (core.Config
// CanonicalLines) plus its digest.
type ConfigRef struct {
	Digest string   `json:"digest"` // sha256 hex of the canonical encoding
	Lines  []string `json:"lines"`
}

// UnitRef is one functional unit's end-of-run statistics.
type UnitRef struct {
	Class       string `json:"class"`
	Index       int    `json:"index"`
	Invocations uint64 `json:"invocations"`
	BusyCycles  uint64 `json:"busy_cycles"`
}

// SlotRef is one thread slot's end-of-run statistics. Stalls is indexed by
// core.StallReason (StallNone first, always zero), so a grown stall reason
// widens the array instead of vanishing.
type SlotRef struct {
	Issued   uint64   `json:"issued"`
	Branches uint64   `json:"branches"`
	Stalls   []uint64 `json:"stalls"`
}

// ResultRef is the payload's copy of core.Result — integers only, so the
// serialization is trivially byte-stable.
type ResultRef struct {
	Cycles       uint64    `json:"cycles"`
	Instructions uint64    `json:"instructions"`
	Switches     uint64    `json:"switches"`
	Forks        uint64    `json:"forks"`
	Kills        uint64    `json:"kills"`
	Units        []UnitRef `json:"units"`
	Slots        []SlotRef `json:"slots"`
}

// CycleStack is a per-slot cycle budget: Slots[s][b] cycles of slot s in
// bucket Buckets[b], with every row summing exactly to the run's cycle
// count. Two stacks appear in a record: the stall-derived stack (always
// present, computed purely from core.Result so it is identical across
// every run mode) and the optional exact CPI stack from an attached
// internal/obs collector.
type CycleStack struct {
	Buckets []string  `json:"buckets"`
	Slots   [][]int64 `json:"slots"`
}

// BoundsRef summarises the static lower-bound certificate
// (lint.ComputeBounds) for the recorded program on the recorded machine.
type BoundsRef struct {
	DepBound      int64 `json:"dep_bound"`
	ResourceBound int64 `json:"resource_bound"`
	IssueBound    int64 `json:"issue_bound"`
	Bound         int64 `json:"bound"`
	Unbounded     bool  `json:"unbounded"`
}

// RunRecord is one completed simulation, canonically serializable. Field
// order is the serialization order; every field is either an integer, a
// string, or a fixed-order composite, so json.Marshal of the struct is
// byte-stable.
type RunRecord struct {
	Format   string      `json:"format"`
	Key      string      `json:"key"`
	Tag      string      `json:"tag,omitempty"` // human label; not part of the run key
	Revision string      `json:"revision"`
	Program  ProgramRef  `json:"program"`
	Workload WorkloadRef `json:"workload"`
	Config   ConfigRef   `json:"config"`
	Result   ResultRef   `json:"result"`
	Stack    CycleStack  `json:"stack"`
	ExactCPI *CycleStack `json:"exact_cpi,omitempty"`
	Bounds   *BoundsRef  `json:"bounds,omitempty"`
}

// Canonical serializes the record to its canonical bytes; the content hash
// is the sha256 of exactly these bytes.
func (r *RunRecord) Canonical() ([]byte, error) { return json.Marshal(r) }

// ContentHash returns the sha256 hex of the canonical serialization.
func (r *RunRecord) ContentHash() (string, error) {
	b, err := r.Canonical()
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

// digestBytes is the ledger's content-address function: sha256 hex.
func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// DigestBytes exposes the content-address function for sibling artifacts,
// such as a trace's text.
func DigestBytes(b []byte) string { return digestBytes(b) }

// stallBucketNames names the stall-derived stack's buckets, aligned with
// the internal/obs CPI-stack vocabulary: index i+1 is core.StallReason(i+1)
// and the final "active-or-unbound" bucket is the exact residual (cycles
// the slot issued, drained, or sat unbound — the Result statistics cannot
// split those further; the exact_cpi stack can).
var stallBucketNames = []string{
	"data-dep", "standby-full", "queue-empty", "queue-full",
	"priority-lost", "fetch-empty", "active-or-unbound",
}

// deriveStack builds the stall-derived cycle stack from a Result. For each
// slot the buckets sum exactly to res.Cycles by construction: the residual
// bucket is cycles minus the slot's stall counters (each slot stalls for at
// most one reason per cycle, so the residual is non-negative).
func deriveStack(res core.Result) CycleStack {
	st := CycleStack{Buckets: stallBucketNames, Slots: make([][]int64, len(res.Slots))}
	for i, s := range res.Slots {
		row := make([]int64, len(stallBucketNames))
		var stalled int64
		for r := core.StallReason(1); int(r) < core.NumStallReasons; r++ {
			row[int(r)-1] = int64(s.Stalls[r])
			stalled += int64(s.Stalls[r])
		}
		row[len(row)-1] = int64(res.Cycles) - stalled
		st.Slots[i] = row
	}
	return st
}

// Pending captures a run's input identity. It must be built *before* the
// simulation starts — the run mutates the memory image the key hashes.
type Pending struct {
	key      string
	program  ProgramRef
	workload WorkloadRef
	config   ConfigRef
}

// Begin digests the inputs of a run about to start: the instruction text,
// the initial memory image, the start PCs, and the canonical configuration.
func Begin(cfg core.Config, text []isa.Instruction, m *mem.Memory, startPCs []int64) *Pending {
	p := &Pending{}

	p.program.Words = len(text)
	if bin, err := isa.EncodeProgram(text); err == nil {
		p.program.Encoding = "binary-v1"
		p.program.Digest = digestBytes(bin)
	} else {
		// Unencodable (synthetic) instructions: fall back to the printed Go
		// value, which is still a deterministic function of the text.
		p.program.Encoding = "govalue-v1"
		p.program.Digest = digestBytes([]byte(fmt.Sprintf("%#v", text)))
	}

	p.workload.StartPCs = normalizePCs(startPCs)
	if m != nil {
		p.workload.MemWords = m.Size()
		p.workload.RemoteBase = m.RemoteBase()
		if p.workload.RemoteBase >= 0 {
			p.workload.RemoteLatency = m.RemoteLatency()
		}
		h := sha256.New()
		_ = m.WriteImage(h) // hash.Hash writes cannot fail
		p.workload.MemDigest = hex.EncodeToString(h.Sum(nil))
	}

	canon := p.setConfig(cfg)

	var b strings.Builder
	b.WriteString(keyFormat)
	b.WriteString("\nprogram=")
	b.WriteString(p.program.Digest)
	b.WriteString("\nmemwords=")
	b.WriteString(strconv.FormatInt(p.workload.MemWords, 10))
	b.WriteString("\nmem=")
	b.WriteString(p.workload.MemDigest)
	fmt.Fprintf(&b, "\nremote=%d/%d", p.workload.RemoteBase, p.workload.RemoteLatency)
	b.WriteString("\npcs=")
	for i, pc := range p.workload.StartPCs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(pc, 10))
	}
	b.WriteString("\nconfig:\n")
	b.WriteString(canon)
	p.key = digestBytes([]byte(b.String()))
	return p
}

// BeginTraces digests the inputs of a trace-driven run about to start: each
// thread's (instruction, address) records and the canonical configuration.
// A replay has no program text, memory image or start PCs, so its key
// covers none of them and ProgramRef names the trace form instead.
func BeginTraces(cfg core.Config, traces [][]core.TraceInput) *Pending {
	p := &Pending{}
	p.program.Encoding = "trace-v1"
	digests := make([]string, len(traces))
	for i, tr := range traces {
		p.program.Words += len(tr)
		digests[i] = traceDigest(tr)
	}
	all := strings.Join(digests, ",")
	p.program.Digest = digestBytes([]byte(all))
	canon := p.setConfig(cfg)
	p.key = digestBytes([]byte(keyFormat + "\ntraces=" + all + "\nconfig:\n" + canon))
	return p
}

// traceDigest hashes one thread's replay records: each instruction's binary
// encoding (its printed Go value when unencodable) and its address.
func traceDigest(tr []core.TraceInput) string {
	h := sha256.New()
	var buf [12]byte
	for _, r := range tr {
		w, err := isa.Encode(r.Ins)
		if err != nil {
			fmt.Fprintf(h, "%#v", r.Ins)
		}
		binary.BigEndian.PutUint32(buf[:4], uint32(w))
		binary.BigEndian.PutUint64(buf[4:], uint64(r.Addr))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setConfig records the canonical configuration and returns its encoding
// for the run key.
func (p *Pending) setConfig(cfg core.Config) string {
	canon := cfg.CanonicalConfig()
	p.config.Digest = digestBytes([]byte(canon))
	p.config.Lines = cfg.CanonicalLines()
	return canon
}

// normalizePCs resolves the runner's "no PCs means one thread at 0"
// convention so both spellings key identically.
func normalizePCs(pcs []int64) []int64 {
	if len(pcs) == 0 {
		return []int64{0}
	}
	out := make([]int64, len(pcs))
	copy(out, pcs)
	return out
}

// Key returns the run key (input identity hash).
func (p *Pending) Key() string { return p.key }

// Finish assembles the RunRecord for a completed run. Optional sections
// (ExactCPI, Bounds) may be attached to the returned record before it is
// appended to a ledger; the content hash is computed at append time over
// whatever the record then holds.
func (p *Pending) Finish(res core.Result, tag string) *RunRecord {
	rec := &RunRecord{
		Format:   recordFormat,
		Key:      p.key,
		Tag:      tag,
		Revision: buildinfo.Get().ShortRevision(),
		Program:  p.program,
		Workload: p.workload,
		Config:   p.config,
		Result: ResultRef{
			Cycles:       res.Cycles,
			Instructions: res.Instructions,
			Switches:     res.Switches,
			Forks:        res.Forks,
			Kills:        res.Kills,
		},
		Stack: deriveStack(res),
	}
	for _, u := range res.Units {
		rec.Result.Units = append(rec.Result.Units, UnitRef{
			Class:       u.Class.String(),
			Index:       u.Index,
			Invocations: u.Invocations,
			BusyCycles:  u.BusyCycles,
		})
	}
	for _, s := range res.Slots {
		stalls := make([]uint64, core.NumStallReasons)
		for r := 0; r < core.NumStallReasons; r++ {
			stalls[r] = s.Stalls[r]
		}
		rec.Result.Slots = append(rec.Result.Slots, SlotRef{
			Issued:   s.Issued,
			Branches: s.Branches,
			Stalls:   stalls,
		})
	}
	return rec
}

// SetExactCPI attaches the exact per-slot CPI stack of an observed run.
// The caller (normally the hirata facade, converting an obs.CPIStack)
// guarantees each slot row sums to the run's cycle count.
func (r *RunRecord) SetExactCPI(buckets []string, slots [][]int64) {
	r.ExactCPI = &CycleStack{Buckets: buckets, Slots: slots}
}

// SetBounds attaches the static lower-bound certificate.
func (r *RunRecord) SetBounds(dep, resource, issue, bound int64, unbounded bool) {
	r.Bounds = &BoundsRef{
		DepBound:      dep,
		ResourceBound: resource,
		IssueBound:    issue,
		Bound:         bound,
		Unbounded:     unbounded,
	}
}

// ShortKey abbreviates a run key or content hash for display.
func ShortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// IPC returns the record's instructions per cycle (display only; never
// serialized).
func (r *RunRecord) IPC() float64 {
	if r.Result.Cycles == 0 {
		return 0
	}
	return float64(r.Result.Instructions) / float64(r.Result.Cycles)
}

// slotCount returns the recorded machine's thread-slot count.
func (r *RunRecord) slotCount() int { return len(r.Result.Slots) }

// stack returns the preferred attribution stack: the exact CPI stack when
// present, else the stall-derived stack.
func (r *RunRecord) stack() (CycleStack, bool) {
	if r.ExactCPI != nil {
		return *r.ExactCPI, true
	}
	return r.Stack, false
}
