package obs

// What-if estimation invariants on the fib example. The bound-vs-actual
// validation against real re-runs with a changed core.Config lives at the
// repo root (whatif_validation_test.go) where the ray-trace workload is
// importable.

import (
	"strings"
	"testing"

	"hirata/internal/isa"
)

func TestParseScenario(t *testing.T) {
	cases := []struct {
		in   string
		kind string
		unit isa.UnitClass
	}{
		{"+1 alu", "unit", isa.UnitIntALU},
		{"ALU", "unit", isa.UnitIntALU},
		{"+1 ls", "unit", isa.UnitLoadStore},
		{"loadstore", "unit", isa.UnitLoadStore},
		{"load-store", "unit", isa.UnitLoadStore},
		{"+1 fpadd", "unit", isa.UnitFPAdd},
		{"+1 shifter", "unit", isa.UnitShifter},
		{"+1 slot", "slot", isa.UnitNone},
		{"thread_slot", "slot", isa.UnitNone},
		{"+1 standby", "standby", isa.UnitNone},
	}
	for _, c := range cases {
		sc, err := ParseScenario(c.in)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", c.in, err)
			continue
		}
		if sc.Kind != c.kind || sc.Unit != c.unit {
			t.Errorf("ParseScenario(%q) = {%s %v}, want {%s %v}", c.in, sc.Kind, sc.Unit, c.kind, c.unit)
		}
		if sc.Label == "" {
			t.Errorf("ParseScenario(%q) has no label", c.in)
		}
	}
	if _, err := ParseScenario("+1 warp"); err == nil {
		t.Error("ParseScenario accepted an unknown scenario")
	}
}

func TestWhatIfBoundsFib(t *testing.T) {
	c, res, _ := runFib(t, Options{RingCapacity: DefaultRingCapacity})
	ests, err := c.WhatIfAll("+1 alu, +1 ls, +1 slot, +1 standby")
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 4 {
		t.Fatalf("got %d estimates, want 4", len(ests))
	}
	for _, e := range ests {
		if e.Baseline != res.Cycles {
			t.Errorf("%s: baseline %d, run took %d", e.Scenario, e.Baseline, res.Cycles)
		}
		if e.Low > e.High || e.High != e.Baseline {
			t.Errorf("%s: bounds [%d, %d] malformed for baseline %d", e.Scenario, e.Low, e.High, e.Baseline)
		}
		if e.GainBound < 0 || e.GainBound > 1 {
			t.Errorf("%s: gain bound %g outside [0, 1]", e.Scenario, e.GainBound)
		}
		if e.Note == "" {
			t.Errorf("%s: estimate has no explanatory note", e.Scenario)
		}
	}
	out := FormatEstimates(ests)
	for _, want := range []string{"+1 IntALU", "+1 LoadStore", "+1 thread slot", "+1 standby depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted estimates missing %q:\n%s", want, out)
		}
	}
}

func TestWhatIfRefusesDroppedEvents(t *testing.T) {
	c, _, _ := runFib(t, Options{RingCapacity: 32})
	if _, err := c.WhatIf(Scenario{Kind: "unit", Unit: isa.UnitIntALU, Label: "+1 IntALU"}); err == nil {
		t.Error("unit what-if accepted a ring that dropped events")
	}
	// The slot scenario uses only the exact incremental accounting and must
	// still answer.
	if _, err := c.WhatIf(Scenario{Kind: "slot", Label: "+1 thread slot"}); err != nil {
		t.Errorf("slot what-if refused despite not needing the ring: %v", err)
	}
}

func TestWhatIfAllRejectsUnknown(t *testing.T) {
	c, _, _ := runFib(t, Options{RingCapacity: DefaultRingCapacity})
	if _, err := c.WhatIfAll("+1 alu, +1 warp"); err == nil {
		t.Error("WhatIfAll accepted an unknown scenario in the list")
	} else if !strings.Contains(err.Error(), "unknown what-if scenario") || !strings.Contains(err.Error(), "warp") {
		t.Errorf("WhatIfAll refused the list for another reason: %v", err)
	}
}
