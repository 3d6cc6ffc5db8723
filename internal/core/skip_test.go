package core

// White-box tests for quiescent-cycle skipping (skip.go): the live
// finished() counters must always agree with the slow structural scan, the
// skip must actually elide work on remote-latency workloads, and rotation
// fast-forwarding must match cycle-by-cycle rotation exactly.

import (
	"reflect"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/mem"
)

// remoteChaseProg is a latency-dominated kernel: chained remote loads with
// a little compute, the shape quiescent skipping targets (§2.1.3 runs).
func remoteChaseProg(t *testing.T) *asm.Program {
	t.Helper()
	return asm.MustAssemble(`
		tid  r1
		slli r2, r1, 4
		addi r3, r2, 1024     ; this thread's remote block
		li   r6, 8
	loop:	lw   r4, 0(r3)
		add  r5, r5, r4
		addi r3, r3, 1
		addi r6, r6, -1
		bnez r6, loop
		sw   r5, 100(r1)
		halt
	`)
}

func remoteChaseMem() *mem.Memory {
	m := mem.NewMemoryWithRemote(2048, 1024, 250)
	for i := int64(1024); i < 2048; i++ {
		m.SetInt(i, i%41)
	}
	return m
}

// TestFinishedMatchesScan drives the Run loop by hand and checks after
// every stepped cycle that the counter-based finished() agrees with the
// structural finishedScan(), across the machine shapes that exercise every
// counter transition: forks and kills, data-absence traps with more frames
// than slots, and plain multithreaded execution.
func TestFinishedMatchesScan(t *testing.T) {
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
			for {
				if p.cycle >= p.cfg.MaxCycles {
					t.Fatalf("runaway at cycle %d", p.cycle)
				}
				if err := p.stepCycle(); err != nil {
					t.Fatal(err)
				}
				if got, want := p.finished(), p.finishedScan(); got != want {
					t.Fatalf("cycle %d: finished() = %v, finishedScan() = %v", p.cycle, got, want)
				}
				if p.finished() {
					return
				}
				p.advanceCycle()
			}
		})
	}
}

// TestSkipElidesQuiescentCycles: on the remote-latency workload the skip
// must step far fewer cycles than it simulates, while the reference path
// steps every one — and both must produce the identical Result.
func TestSkipElidesQuiescentCycles(t *testing.T) {
	prog := remoteChaseProg(t)
	run := func(disable bool) (Result, uint64) {
		p, err := New(Config{
			ThreadSlots:      1,
			ContextFrames:    4,
			StandbyStations:  true,
			DisableCycleSkip: disable,
		}, prog.Text, remoteChaseMem())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := p.StartThread(0); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, p.stepsExecuted
	}
	ref, refSteps := run(true)
	fast, fastSteps := run(false)
	if !reflect.DeepEqual(ref, fast) {
		t.Errorf("Result differs:\n  stepped: %+v\n  skipped: %+v", ref, fast)
	}
	if refSteps < ref.Cycles {
		t.Errorf("reference path stepped %d of %d cycles", refSteps, ref.Cycles)
	}
	if fastSteps*2 >= fast.Cycles {
		t.Errorf("skip stepped %d of %d cycles; want well under half", fastSteps, fast.Cycles)
	}
}

// rotationLog is a test Observer that records every Rotate event as
// (cycle, copy of the priority order).
type rotationLog struct {
	countingObserver
	events []rotation
}

type rotation struct {
	cycle uint64
	prio  []int
}

func (r *rotationLog) Rotate(cycle uint64, prio []int) {
	r.events = append(r.events, rotation{cycle, append([]int(nil), prio...)})
}

// TestFastForwardRotation checks fastForwardRotation against a naive
// cycle-by-cycle walk of rotatePriorities for a spread of targets,
// interval sizes and priority-list lengths, in both rotation modes: a bare
// processor must end with the walk's priority order, and an observed one
// must also report the walk's Rotate events, cycle for cycle.
func TestFastForwardRotation(t *testing.T) {
	prog := asm.MustAssemble("\thalt\n")
	for _, explicit := range []bool{false, true} {
		for _, slots := range []int{1, 2, 5, 8} {
			for _, interval := range []int{1, 4, 8} {
				mk := func(o *rotationLog) *Processor {
					p, err := New(Config{
						ThreadSlots:      slots,
						RotationInterval: interval,
						ExplicitRotation: explicit,
					}, prog.Text, mem.NewMemory(64))
					if err != nil {
						t.Fatal(err)
					}
					if o != nil {
						p.Observe(o)
					}
					return p
				}
				fastLog, naiveLog := &rotationLog{}, &rotationLog{}
				bare, observed, naive := mk(nil), mk(fastLog), mk(naiveLog)
				// Walk through increasing targets, fast-forwarding two and
				// stepping the third's rotation phase through every cycle.
				for _, target := range []uint64{1, 3, 8, 9, 64, 65, 1000, 1001, 99999} {
					bare.fastForwardRotation(target)
					observed.fastForwardRotation(target)
					for ; naive.cycle < target; naive.cycle++ {
						naive.rotatePriorities()
					}
					for _, fast := range []*Processor{bare, observed} {
						if fast.nextRotation != naive.nextRotation {
							t.Fatalf("explicit=%v slots=%d interval=%d target=%d: nextRotation %d, want %d",
								explicit, slots, interval, target, fast.nextRotation, naive.nextRotation)
						}
						if !reflect.DeepEqual(fast.prio, naive.prio) {
							t.Fatalf("explicit=%v slots=%d interval=%d target=%d: prio %v, want %v",
								explicit, slots, interval, target, fast.prio, naive.prio)
						}
					}
					if !reflect.DeepEqual(fastLog.events, naiveLog.events) {
						t.Fatalf("explicit=%v slots=%d interval=%d target=%d: %d Rotate events differ from the walk's %d",
							explicit, slots, interval, target, len(fastLog.events), len(naiveLog.events))
					}
					fastLog.events, naiveLog.events = nil, nil
				}
			}
		}
	}
}

// finishedScan is the full-scan implementation of finished that the live
// counters replaced; TestFinishedMatchesScan asserts the two agree every
// cycle. It reads the slots' completion deadlines, not the machine-wide
// one that finished() reads.
func (p *Processor) finishedScan() bool {
	if len(p.readyQ) > 0 {
		return false
	}
	for _, s := range p.slots {
		if s.doneAt > p.cycle {
			return false
		}
	}
	for _, f := range p.frames {
		if f.state == frameRunning || f.state == frameWaiting || f.state == frameReady {
			return false
		}
	}
	for _, s := range p.slots {
		if s.state != slotIdle || s.d1n+len(s.d2) > 0 || !s.issuedEmpty() {
			return false
		}
	}
	return true
}
