package core

import (
	"testing"

	"hirata/internal/asm"
)

// TestCycleLoopDisabledHostObsAllocFree pins the nil-HostProbe fast path:
// with self-observability detached (the default for every production run),
// steady-state stepping must not allocate — the probe fields add only a
// nil check and an always-false hostSampled branch per step.
func TestCycleLoopDisabledHostObsAllocFree(t *testing.T) {
	prog := asm.MustAssemble(allocLoopSrc)
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	if p.hostProbe != nil {
		t.Fatal("probe attached by default")
	}
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	p.started = true
	for i := 0; i < 200; i++ {
		if err := p.stepCycle(); err != nil {
			t.Fatal(err)
		}
		p.advanceCycle()
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := p.stepCycle(); err != nil {
			t.Fatal(err)
		}
		p.advanceCycle()
	})
	if allocs > 0 {
		t.Errorf("steady-state stepCycle allocates %.1f objects/cycle with no host probe; want 0", allocs)
	}
}

// countingProbe records the probe callback sequence without timing anything.
type countingProbe struct {
	sample    bool
	steps     uint64
	phases    []HostPhase
	samples   []TouchSample
	skipJumps int
	runEnds   int
}

func (c *countingProbe) StepStart(cycle uint64) bool {
	c.steps++
	c.phases = c.phases[:0]
	return c.sample
}
func (c *countingProbe) PhaseEnd(ph HostPhase)    { c.phases = append(c.phases, ph) }
func (c *countingProbe) StepEnd(t TouchSample)    { c.samples = append(c.samples, t) }
func (c *countingProbe) SkipJump(from, to uint64) { c.skipJumps++ }
func (c *countingProbe) RunEnd(cycles, steps uint64) {
	c.runEnds++
	if steps != c.steps {
		panic("RunEnd steps disagree with StepStart count")
	}
}

// TestHostProbePhaseOrder checks that a sampled step reports the seven
// in-step phases in pipeline order — with HostPhaseSkip appearing only on
// steps where the event-horizon machinery armed, never on ordinary steps,
// for eight phases in all — and that declining the sample suppresses
// PhaseEnd and StepEnd entirely (unsampled steps pay for no timing).
func TestHostProbePhaseOrder(t *testing.T) {
	run := func(sample bool) *countingProbe {
		prog := asm.MustAssemble(allocLoopSrc)
		m, err := prog.NewMemory(64)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
		if err != nil {
			t.Fatal(err)
		}
		cp := &countingProbe{sample: sample}
		p.SetHostProbe(cp)
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return cp
	}

	sampled := run(true)
	if sampled.runEnds != 1 || sampled.steps == 0 {
		t.Fatalf("run saw %d RunEnd over %d steps", sampled.runEnds, sampled.steps)
	}
	if NumHostPhases != 8 {
		t.Fatalf("NumHostPhases = %d; want 8", NumHostPhases)
	}
	wantOrder := []HostPhase{
		HostPhaseRotation, HostPhaseCompletion, HostPhaseWake, HostPhaseBind,
		HostPhaseSelect, HostPhaseDecode, HostPhaseFetch,
	}
	// phases holds the callbacks since the final StepStart: exactly the
	// seven in-step phases. The final step exits Run before advanceCycle, so
	// no event-horizon report may trail it — that phase is charged only on
	// steps where the horizon machinery actually armed.
	if len(sampled.phases) != len(wantOrder) {
		t.Fatalf("final step reported %d phases (%v); want %d", len(sampled.phases), sampled.phases, len(wantOrder))
	}
	for i, ph := range wantOrder {
		if sampled.phases[i] != ph {
			t.Errorf("phase %d = %s; want %s", i, sampled.phases[i], ph)
		}
	}
	if uint64(len(sampled.samples)) != sampled.steps {
		t.Errorf("StepEnd fired %d times over %d steps", len(sampled.samples), sampled.steps)
	}
	var running uint64
	for i, s := range sampled.samples {
		if i > 0 && s.Cycle <= sampled.samples[i-1].Cycle {
			t.Fatalf("sample %d at cycle %d follows cycle %d", i, s.Cycle, sampled.samples[i-1].Cycle)
		}
		running += s.RunningSlots
	}
	if running == 0 {
		t.Error("no sampled step saw a running slot")
	}

	declined := run(false)
	if len(declined.phases) != 0 {
		t.Errorf("declined sample still got PhaseEnd: %v", declined.phases)
	}
	if len(declined.samples) != 0 {
		t.Errorf("declined sample still got %d StepEnd callbacks", len(declined.samples))
	}
}

// TestHostProbeKeepsSkipArmed verifies attaching a probe does not disable
// quiescent-cycle fast-forwarding (unlike a Collector): the probe observes
// jumps instead of preventing them, so profiled runs stay cycle-exact.
func TestHostProbeKeepsSkipArmed(t *testing.T) {
	prog := asm.MustAssemble(allocLoopSrc)
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	p.SetHostProbe(&countingProbe{})
	if !p.skipEnabled() {
		t.Error("host probe disabled cycle skipping; it must only observe")
	}
}
