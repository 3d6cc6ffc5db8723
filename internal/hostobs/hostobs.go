// Package hostobs is the simulator observing itself: host-side
// self-observability for the cycle loop (internal/core), the sweep engine
// (internal/sweep) and the benchmark harness. Where internal/obs explains
// the *simulated* machine, hostobs explains the *simulator* — which phase
// of stepCycle the wall-clock goes to, how many cycles the event horizon
// jumps instead of stepping, and how sweep workers fill their timelines.
//
// The Profiler implements core.HostProbe with the nil-observer discipline:
// detached, the cycle loop pays one nil check per step; attached, only
// every SampleEvery-th step is timed, so the enabled overhead stays within
// a few percent (BenchmarkSimulatorThroughputSelfProfile pins ≤5%).
// Attaching a Profiler does not disable quiescent-cycle skipping and does
// not perturb simulation results — a profiled run is result-identical to an
// unprofiled one (TestProfiledRunIsResultIdentical).
package hostobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hirata/internal/core"
)

// DefaultSampleEvery is the default sampling interval: one in every 128
// stepCycle invocations is timed. A sampled step pays one clock read per
// phase boundary; the event-driven core stepped cycles fast enough that
// the old 1/32 default no longer fit inside the documented 5% overhead
// budget on hosts with slow clock sources.
const DefaultSampleEvery = 128

// DefaultTraceCap bounds the per-step sample ring retained for the host
// Chrome trace (drop-oldest, like the obs event ring).
const DefaultTraceCap = 4096

// Options configures a Profiler. The zero value picks the defaults.
type Options struct {
	// SampleEvery times one in every N steps (default DefaultSampleEvery;
	// 1 samples every step — useful in tests, too hot for benchmarks).
	SampleEvery uint64
	// TraceCap bounds retained per-step samples (default DefaultTraceCap).
	TraceCap int
}

// StepSample is one sampled step retained for the host trace: where it sat
// on the host clock, how long each phase took, and how many thread slots
// were running when it started.
type StepSample struct {
	Cycle   uint64
	StartNs uint64 // host ns since the profiler was created
	// PhaseNs holds per-phase durations. HostPhaseSkip is always zero in
	// per-step samples (the skip machinery runs between steps and is
	// charged to the aggregate only).
	PhaseNs      [core.NumHostPhases]uint64
	RunningSlots uint64
}

// SkipEvent records one quiescent-cycle fast-forward for the host trace.
type SkipEvent struct {
	From, To uint64 // simulated cycles
	AtNs     uint64 // host ns since profiler creation
}

// Profiler implements core.HostProbe: sampled wall-time phase attribution
// and skip accounting, safe for concurrent reads (the /hostmetrics handler
// scrapes while the simulation loop writes).
type Profiler struct {
	opt   Options
	epoch time.Time

	steps       atomic.Uint64 // every stepCycle, sampled or not
	untilSample uint64        // countdown to the next sampled step (sim thread only)

	// cur is the in-flight sampled step, written only by the simulation
	// loop between StepStart and StepEnd (single-threaded); folded into the
	// locked aggregates at StepEnd.
	cur struct {
		t0    time.Time
		mark  time.Time
		phase [core.NumHostPhases]uint64
	}

	mu           sync.Mutex
	sampledSteps uint64
	phaseNanos   [core.NumHostPhases]uint64
	ring         []StepSample // circular, cap = opt.TraceCap
	ringNext     int          // next write position once len == cap
	skipJumps    uint64
	skippedCyc   uint64
	skips        []SkipEvent // circular, bounded like ring
	skipsNext    int
	runs         uint64
	runCycles    uint64
	runSteps     uint64
}

var _ core.HostProbe = (*Profiler)(nil)

// New builds a Profiler. The zero Options picks DefaultSampleEvery and
// DefaultTraceCap. All ring storage is preallocated here so the probe never
// allocates on the cycle loop — sampled or not (the alloc-free test covers
// both paths).
func New(opt Options) *Profiler {
	if opt.SampleEvery == 0 {
		opt.SampleEvery = DefaultSampleEvery
	}
	if opt.TraceCap == 0 {
		opt.TraceCap = DefaultTraceCap
	}
	return &Profiler{
		opt:   opt,
		epoch: time.Now(),
		ring:  make([]StepSample, 0, opt.TraceCap),
		skips: make([]SkipEvent, 0, 256),
	}
}

// StepStart elects whether to sample this step. The first step is always
// sampled so short runs still produce a profile. This runs on every
// simulated cycle, so the fast path is a plain-store counter bump and a
// countdown — no atomic read-modify-write, no division. StepStart has a
// single caller goroutine (the cycle loop); the atomic store publishes the
// count to concurrent Profile() readers.
func (p *Profiler) StepStart(cycle uint64) bool {
	p.steps.Store(p.steps.Load() + 1)
	if p.untilSample > 1 {
		p.untilSample--
		return false
	}
	p.untilSample = p.opt.SampleEvery
	now := time.Now()
	p.cur.t0 = now
	p.cur.mark = now
	p.cur.phase = [core.NumHostPhases]uint64{}
	return true
}

// PhaseEnd charges the time since the previous mark to one phase.
// HostPhaseSkip arrives after StepEnd (the skip machinery runs between
// steps) and goes straight to the locked aggregate.
func (p *Profiler) PhaseEnd(ph core.HostPhase) {
	now := time.Now()
	d := uint64(now.Sub(p.cur.mark))
	p.cur.mark = now
	if ph == core.HostPhaseSkip {
		p.mu.Lock()
		p.phaseNanos[ph] += d
		p.mu.Unlock()
		return
	}
	p.cur.phase[ph] += d
}

// StepEnd folds the sampled step into the aggregates and the trace ring.
func (p *Profiler) StepEnd(t core.TouchSample) {
	s := StepSample{
		Cycle:        t.Cycle,
		StartNs:      uint64(p.cur.t0.Sub(p.epoch)),
		PhaseNs:      p.cur.phase,
		RunningSlots: t.RunningSlots,
	}
	p.mu.Lock()
	p.sampledSteps++
	for i, d := range p.cur.phase {
		p.phaseNanos[i] += d
	}
	if len(p.ring) < cap(p.ring) {
		p.ring = append(p.ring, s)
	} else if cap(p.ring) > 0 {
		p.ring[p.ringNext] = s
		p.ringNext = (p.ringNext + 1) % cap(p.ring)
	}
	p.mu.Unlock()
}

// SkipJump records one quiescent-cycle fast-forward.
func (p *Profiler) SkipJump(from, to uint64) {
	e := SkipEvent{From: from, To: to, AtNs: uint64(time.Since(p.epoch))}
	p.mu.Lock()
	p.skipJumps++
	p.skippedCyc += to - from - 1
	if len(p.skips) < cap(p.skips) {
		p.skips = append(p.skips, e)
	} else if cap(p.skips) > 0 {
		p.skips[p.skipsNext] = e
		p.skipsNext = (p.skipsNext + 1) % cap(p.skips)
	}
	p.mu.Unlock()
}

// RunEnd records the completed run's totals. A Profiler may observe several
// runs (e.g. warmup + measured); totals accumulate.
func (p *Profiler) RunEnd(cycles, steps uint64) {
	p.mu.Lock()
	p.runs++
	p.runCycles += cycles
	p.runSteps += steps
	p.mu.Unlock()
}

// PhaseTime is one row of a PhaseProfile.
type PhaseTime struct {
	Name      string  `json:"name"`
	Nanos     uint64  `json:"nanos"`
	Fraction  float64 `json:"fraction"` // of total sampled time
	NsPerStep float64 `json:"ns_per_sampled_step"`
}

// PhaseProfile is the aggregated cycle-loop phase attribution.
type PhaseProfile struct {
	SampleEvery  uint64 `json:"sample_every"`
	Steps        uint64 `json:"steps"` // stepCycle invocations observed
	SampledSteps uint64 `json:"sampled_steps"`
	RunCycles    uint64 `json:"run_cycles"` // simulated cycles (all runs)
	// SteppedCycles counts cycles actually simulated by stepCycle in
	// completed runs; SkippedCycles counts cycles jumped by the event
	// horizon. RunCycles = SteppedCycles + SkippedCycles for completed
	// runs, so the two fields split "cycle simulated" from "cycle jumped".
	SteppedCycles   uint64      `json:"stepped_cycles"`
	SkipJumps       uint64      `json:"skip_jumps"`
	SkippedCycles   uint64      `json:"skipped_cycles"`
	Phases          []PhaseTime `json:"phases"`
	SampledNanos    uint64      `json:"sampled_nanos"`   // Σ phase nanos
	EstTotalNanos   uint64      `json:"est_total_nanos"` // scaled by Steps/SampledSteps
	NsPerStep       float64     `json:"ns_per_sampled_step"`
	SimCyclesPerSec float64     `json:"sim_cycles_per_sec"` // RunCycles over estimated loop time
}

// Profile snapshots the phase attribution.
func (p *Profiler) Profile() PhaseProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := PhaseProfile{
		SampleEvery:   p.opt.SampleEvery,
		Steps:         p.steps.Load(),
		SampledSteps:  p.sampledSteps,
		RunCycles:     p.runCycles,
		SteppedCycles: p.runSteps,
		SkipJumps:     p.skipJumps,
		SkippedCycles: p.skippedCyc,
	}
	var total uint64
	for _, d := range p.phaseNanos {
		total += d
	}
	pp.SampledNanos = total
	for ph := core.HostPhase(0); ph < core.NumHostPhases; ph++ {
		row := PhaseTime{Name: ph.String(), Nanos: p.phaseNanos[ph]}
		if total > 0 {
			row.Fraction = float64(row.Nanos) / float64(total)
		}
		if p.sampledSteps > 0 {
			row.NsPerStep = float64(row.Nanos) / float64(p.sampledSteps)
		}
		pp.Phases = append(pp.Phases, row)
	}
	if p.sampledSteps > 0 {
		pp.NsPerStep = float64(total) / float64(p.sampledSteps)
		pp.EstTotalNanos = uint64(float64(total) * float64(pp.Steps) / float64(p.sampledSteps))
	}
	if pp.EstTotalNanos > 0 && pp.RunCycles > 0 {
		pp.SimCyclesPerSec = float64(pp.RunCycles) / (float64(pp.EstTotalNanos) / 1e9)
	}
	return pp
}

// Format renders the profile as a human-readable table, phases sorted by
// time spent.
func (pp PhaseProfile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host cycle-loop phase profile (1/%d sampling: %d of %d steps)\n",
		pp.SampleEvery, pp.SampledSteps, pp.Steps)
	fmt.Fprintf(&b, "  simulated cycles %d: %d stepped, %d jumped by event horizon (%d jumps)\n",
		pp.RunCycles, pp.SteppedCycles, pp.SkippedCycles, pp.SkipJumps)
	if pp.NsPerStep > 0 {
		fmt.Fprintf(&b, "  %.0f ns/sampled step; est. loop time %.3f ms; %.0f sim-cycles/s\n",
			pp.NsPerStep, float64(pp.EstTotalNanos)/1e6, pp.SimCyclesPerSec)
	}
	fmt.Fprintf(&b, "  %-14s %12s %7s %12s\n", "phase", "ns", "%", "ns/step")
	rows := append([]PhaseTime(nil), pp.Phases...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Nanos > rows[j].Nanos })
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %12d %6.1f%% %12.1f\n", r.Name, r.Nanos, 100*r.Fraction, r.NsPerStep)
	}
	return b.String()
}

// Samples returns the retained step samples in chronological order and the
// retained skip events.
func (p *Profiler) Samples() ([]StepSample, []SkipEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]StepSample, 0, len(p.ring))
	if len(p.ring) == cap(p.ring) && cap(p.ring) > 0 {
		out = append(out, p.ring[p.ringNext:]...)
		out = append(out, p.ring[:p.ringNext]...)
	} else {
		out = append(out, p.ring...)
	}
	sk := make([]SkipEvent, 0, len(p.skips))
	if len(p.skips) == cap(p.skips) && cap(p.skips) > 0 {
		sk = append(sk, p.skips[p.skipsNext:]...)
		sk = append(sk, p.skips[:p.skipsNext]...)
	} else {
		sk = append(sk, p.skips...)
	}
	return out, sk
}

// WriteJSON emits the phase profile as an indented JSON document (the
// -self-profile-json artifact).
func (p *Profiler) WriteJSON(w io.Writer) error {
	type doc struct {
		Profile PhaseProfile `json:"phase_profile"`
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc{Profile: p.Profile()})
}

// ProfileDigest returns the sha256 hex of the profiler's JSON export — the
// content address a run record (internal/runledger) stores to tie a host
// profile artifact to the simulation it measured. Host timings vary run to
// run, so the digest identifies one captured artifact, not the run inputs.
func (p *Profiler) ProfileDigest() (string, error) {
	h := sha256.New()
	if err := p.WriteJSON(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
