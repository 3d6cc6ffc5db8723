package core

import (
	"testing"

	"hirata/internal/asm"
)

// TestCycleLoopSteadyStateAllocFree pins the bare cycle loop: once a run
// is under way, stepCycle and advanceCycle must not allocate.
func TestCycleLoopSteadyStateAllocFree(t *testing.T) {
	prog := asm.MustAssemble(allocLoopSrc)
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
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
		t.Errorf("steady-state stepCycle allocates %.1f objects/cycle; want 0", allocs)
	}
}

// countingProbe counts the probe's callbacks.
type countingProbe struct {
	skipJumps, runEnds int
}

func (c *countingProbe) SkipJump(from, to uint64)    { c.skipJumps++ }
func (c *countingProbe) RunEnd(cycles, steps uint64) { c.runEnds++ }

// TestHostProbeKeepsSkipArmed verifies that neither a host probe nor a
// pipeline Observer disarms quiescent-cycle fast-forwarding: on the
// remote-chase kernel a run with both attached still jumps, and the probe
// sees the jumps instead of preventing them.
func TestHostProbeKeepsSkipArmed(t *testing.T) {
	prog := remoteChaseProg(t)
	p, err := New(Config{ThreadSlots: 1, ContextFrames: 4, StandbyStations: true}, prog.Text, remoteChaseMem())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := p.StartThread(0); err != nil {
			t.Fatal(err)
		}
	}
	cp := &countingProbe{}
	p.SetHostProbe(cp)
	p.Observe(&countingObserver{})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if cp.skipJumps == 0 {
		t.Error("observed, counted run reported no SkipJump; observing must not disarm skipping")
	}
	if cp.runEnds != 1 {
		t.Errorf("RunEnd fired %d times, want once", cp.runEnds)
	}
}
