package core_test

import (
	"testing"

	"hirata/internal/asm"
	"hirata/internal/core"
	"hirata/internal/obs"
)

// benchSrc is a mixed integer/FP loop long enough to dominate setup cost.
const benchSrc = `
	li   r1, 500
	li   r2, 3
	itof f1, r2
loop:	mul  r3, r1, r2
	itof f2, r3
	fmul f1, f1, f2
	addi r1, r1, -1
	bnez r1, loop
	halt
`

func benchRun(b *testing.B, attach func(*core.Processor) *obs.Collector) {
	b.Helper()
	prog := asm.MustAssemble(benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := prog.NewMemory(64)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.New(core.Config{ThreadSlots: 2, StandbyStations: true}, prog.Text, m)
		if err != nil {
			b.Fatal(err)
		}
		var c *obs.Collector
		if attach != nil {
			c = attach(p)
		}
		if err := p.StartThread(0); err != nil {
			b.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		if c != nil {
			c.Finalize(res)
		}
	}
}

// BenchmarkRunNoObserver is the baseline simulation loop: no observer, so
// the event hooks must cost one nil check and zero allocations per cycle
// (the companion assertion is TestStepCycleNoObserverAllocFree).
func BenchmarkRunNoObserver(b *testing.B) {
	benchRun(b, nil)
}

// BenchmarkRunCollector measures the observability tax: per-PC profile,
// interval metrics and CPI accounting, with (/ring) and without (/no-ring)
// event capture into the default ring.
func BenchmarkRunCollector(b *testing.B) {
	for _, bc := range []struct {
		name string
		ring int
	}{{"ring", obs.DefaultRingCapacity}, {"no-ring", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			benchRun(b, func(p *core.Processor) *obs.Collector {
				c := obs.NewCollector(core.Config{ThreadSlots: 2}, obs.Options{MetricsInterval: 64, RingCapacity: bc.ring})
				p.Observe(c)
				return c
			})
		})
	}
}
