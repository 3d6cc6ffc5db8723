package core

import (
	"testing"

	"hirata/internal/asm"
)

// allocLoopSrc keeps the pipeline busy for thousands of cycles: an integer
// countdown with a multiply so both the IntALU and IntMul see traffic.
const allocLoopSrc = `
	li   r1, 2000
	li   r2, 1
loop:	mul  r2, r2, r1
	addi r1, r1, -1
	bnez r1, loop
	halt
`

// TestStepCycleNoObserverAllocFree pins the nil-observer fast path: once
// the pipeline reaches steady state, stepping cycles must not allocate,
// whether the slots run program text or replay a trace.
// The observability layer rides on this — attaching a Collector may
// allocate, but a run without one must stay as cheap as before it existed.
func TestStepCycleNoObserverAllocFree(t *testing.T) {
	cfg := Config{ThreadSlots: 2, StandbyStations: true}
	prog := asm.MustAssemble(allocLoopSrc)
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := exe.StartThread(0); err != nil {
		t.Fatal(err)
	}
	rec := recordInputs(t, allocLoopSrc)
	replay, err := NewTraceDriven(cfg, [][]TraceInput{rec, rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Processor
	}{{"program", exe}, {"trace", replay}} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			p.started = true
			// Warm up past the cold-start allocations (queue growth, first
			// frame bind, event-heap capacity) before measuring.
			// advanceCycle rather than a bare p.cycle++ so the
			// pending-event heap drains as it would in Run.
			for i := 0; i < 200; i++ {
				if err := p.stepCycle(); err != nil {
					t.Fatal(err)
				}
				p.advanceCycle()
			}
			// One measured run spans many cycles: AllocsPerRun truncates
			// its per-run average, so per-cycle runs would hide an
			// allocation made less than once a cycle (say, per fetch).
			const window = 1000
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < window; i++ {
					if err := p.stepCycle(); err != nil {
						t.Fatal(err)
					}
					p.advanceCycle()
				}
			})
			if allocs > 0 {
				t.Errorf("steady-state stepCycle allocates %.0f objects in %d cycles with no observer; want 0", allocs, window)
			}
			if p.finished() {
				t.Error("run finished inside the measured window; lengthen the loop")
			}
		})
	}
}
