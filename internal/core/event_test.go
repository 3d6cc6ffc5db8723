package core

// White-box proof that the pending-event set never drops a scheduled wake:
// at every point the quiescent jump can arm, the heap-and-wheel horizon
// (quiescentHorizon) must not lie beyond the structural reference scan
// (quiescentHorizonScan, below). An event horizon that is *early* merely costs one
// extra step — stale pushes are allowed — but a *late* horizon means some
// resource's wake was never pushed, which would change results.

import (
	"testing"

	"hirata/internal/asm"
	"hirata/internal/mem"
)

// TestEventHorizonNeverLate drives the Run loop by hand across the machine
// shapes that exercise every event source — forks and kills, data-absence
// traps with more frames than slots, plain multithreaded loops — and
// cross-checks the two horizons before every advanceCycle at which the
// skip machinery would arm.
func TestEventHorizonNeverLate(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		cfg     Config
		threads int
	}{
		{
			name: "forks",
			src: `
		ffork
		tid  r1
		sw   r1, 200(r1)
		halt
	`,
			cfg:     Config{ThreadSlots: 4, StandbyStations: true},
			threads: 1,
		},
		{
			name:    "remote-traps",
			src:     "",
			cfg:     Config{ThreadSlots: 1, ContextFrames: 4, StandbyStations: true},
			threads: 4,
		},
		{
			name:    "remote-traps-wide",
			src:     "",
			cfg:     Config{ThreadSlots: 2, ContextFrames: 6, StandbyStations: true, LoadStoreUnits: 2},
			threads: 6,
		},
		{
			name: "plain",
			src: `
		tid  r1
		li   r2, 20
	loop:	addi r2, r2, -1
		bnez r2, loop
		halt
	`,
			cfg:     Config{ThreadSlots: 2, ContextFrames: 2},
			threads: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var prog *asm.Program
			var m *mem.Memory
			if tc.src == "" {
				prog = remoteChaseProg(t)
				m = remoteChaseMem()
			} else {
				prog = asm.MustAssemble(tc.src)
				m = mem.NewMemory(2048)
				if err := prog.InitMemory(m); err != nil {
					t.Fatal(err)
				}
			}
			p, err := New(tc.cfg, prog.Text, m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.threads; i++ {
				if err := p.StartThread(0); err != nil {
					t.Fatal(err)
				}
			}
			p.started = true
			checks := 0
			for {
				if p.cycle >= p.cfg.MaxCycles {
					t.Fatalf("runaway at cycle %d", p.cycle)
				}
				if err := p.stepCycle(); err != nil {
					t.Fatal(err)
				}
				if p.finished() {
					break
				}
				if p.runningSlots == 0 {
					checks++
					ev := p.quiescentHorizon()
					sc := p.quiescentHorizonScan()
					if ev > sc {
						t.Fatalf("cycle %d: event horizon %d beyond structural horizon %d (dropped wake)",
							p.cycle, ev, sc)
					}
					if ev <= p.cycle {
						t.Fatalf("cycle %d: event horizon %d does not advance", p.cycle, ev)
					}
				}
				p.advanceCycle()
			}
			if tc.src == "" && checks == 0 {
				t.Error("remote workload never armed the quiescent jump; cross-check exercised nothing")
			}
		})
	}
}

// quiescentHorizonScan recomputes the quiescent horizon structurally from
// the machine state, independent of the pending-event set; it is the
// reference TestEventHorizonNeverLate checks quiescentHorizon against.
// Every candidate is conservative: reporting an event too early merely costs a normal step,
// while missing one would alter results — so each machine resource that
// can wake the pipeline contributes its own bound:
//
//   - completion ring: the next non-empty retire list (outstanding > 0);
//   - wait heap: the earliest frame wake deadline (stale entries are at
//     worst early, never late);
//   - ready queue: the earliest rebind time of an idle slot;
//   - standby stations/latches: for each class with issued-but-unselected
//     instructions, the first cycle a unit of that class is free
//     (busyUntil + 1, since schedulePhase requires busyUntil < cycle);
//   - draining slots that have fully drained: they unbind at the very next
//     bindSlots, so the horizon collapses to cycle+1;
//   - busy fetch units: their delivery cycle (deliveries into non-running
//     slots are dropped, but the drop itself must happen on time so the
//     unit frees up on the cycle stepping would free it).
//
// Idle fetch units need no bound: startFetch only serves running slots.
// If no resource reports an event the machine can never make progress
// (and finished() was false), i.e. a genuine deadlock: return MaxCycles so
// Run raises the same diagnostic the cycle-by-cycle loop would reach.
func (p *Processor) quiescentHorizonScan() uint64 {
	floor := p.cycle + 1
	t := uint64(noEvent)

	if p.outstanding > 0 {
		for d := uint64(1); d <= p.compMask+1; d++ {
			if len(p.completions[(p.cycle+d)&p.compMask]) > 0 {
				t = minEvent(t, p.cycle+d)
				break
			}
		}
	}
	if len(p.waitHeap) > 0 {
		t = minEvent(t, maxU(p.waitHeap[0].when, floor))
	}
	if len(p.readyQ) > 0 {
		for _, s := range p.slots {
			if s.state == slotIdle {
				t = minEvent(t, maxU(s.bindReadyAt, floor))
			}
		}
	}
	if p.issuedPending > 0 {
		var classes [unitClassCount]bool
		for _, s := range p.slots {
			if s.latch != nil {
				classes[s.latch.class] = true
			}
			for cls, st := range s.standby {
				if len(st) > 0 {
					classes[cls] = true
				}
			}
		}
		for cls, need := range classes {
			if !need {
				continue
			}
			for _, u := range p.unitsByCls[cls] {
				t = minEvent(t, maxU(u.busyUntil+1, floor))
			}
		}
	}
	for _, s := range p.slots {
		if s.state == slotDraining && s.outstanding == 0 && s.issuedEmpty() {
			t = minEvent(t, floor) // unbinds at the next bindSlots
		}
	}
	for _, fu := range p.fetchers {
		if fu.busy {
			t = minEvent(t, maxU(fu.busyUntil, floor))
		}
	}
	if t == noEvent {
		return p.cfg.MaxCycles
	}
	return t
}
