// What-if bottleneck estimation: bound the cycle count of a changed
// machine from one observed run, without re-simulating. The paper's whole
// evaluation grid (§3, Tables 3-5) is what-if re-runs — "+1 load/store
// unit", "more thread slots", "deeper standby" — each a full simulation;
// this pass answers the same questions as an interval [Low, High] derived
// from the critical path and the CPI stack:
//
//   - Adding a unit of class c can at best remove the arbitration/occupancy
//     wait the path charged to c: Low = T − Breakdown.Unit[c], High = T
//     (relaxing a resource never slows the run).
//   - Deepening standby stations can at best remove the standby waits:
//     Low = T − Breakdown.Standby, High = T.
//   - Adding a thread slot can at best scale the throughput-bound portion
//     by S/(S+1): Low = T·S/(S+1), High = T (per-thread critical paths and
//     shared-unit saturation both break perfect scaling).
//
// The bounds are validated against actual re-runs with the changed
// core.Config in whatif_test.go; Config.ExtraUnits exists precisely so
// "+1 ALU" is a re-runnable configuration.
package obs

import (
	"fmt"
	"strings"

	"hirata/internal/isa"
)

// Scenario is one parsed what-if question.
type Scenario struct {
	Kind  string // "unit", "slot", or "standby"
	Unit  isa.UnitClass
	Label string // canonical form, e.g. "+1 IntALU"
}

// ParseScenario parses a what-if scenario string. Accepted forms (case-
// insensitive): "+1 alu", "+1 shifter", "+1 intmul", "+1 fpadd",
// "+1 fpmul", "+1 fpdiv", "+1 ls" (or "loadstore"), "+1 slot",
// "+1 standby".
func ParseScenario(s string) (Scenario, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	t = strings.TrimPrefix(t, "+1")
	t = strings.TrimSpace(strings.ReplaceAll(strings.ReplaceAll(t, "-", ""), "_", ""))
	switch t {
	case "slot", "threadslot", "thread slot":
		return Scenario{Kind: "slot", Label: "+1 thread slot"}, nil
	case "standby", "standbydepth", "standby depth":
		return Scenario{Kind: "standby", Label: "+1 standby depth"}, nil
	}
	classes := map[string]isa.UnitClass{
		"alu": isa.UnitIntALU, "intalu": isa.UnitIntALU,
		"shift": isa.UnitShifter, "shifter": isa.UnitShifter,
		"mul": isa.UnitIntMul, "intmul": isa.UnitIntMul,
		"fpadd": isa.UnitFPAdd,
		"fpmul": isa.UnitFPMul,
		"fpdiv": isa.UnitFPDiv,
		"ls":    isa.UnitLoadStore, "loadstore": isa.UnitLoadStore, "load/store": isa.UnitLoadStore,
	}
	if cls, ok := classes[t]; ok {
		return Scenario{Kind: "unit", Unit: cls, Label: "+1 " + cls.String()}, nil
	}
	return Scenario{}, fmt.Errorf("obs: unknown what-if scenario %q (want e.g. \"+1 alu\", \"+1 ls\", \"+1 slot\", \"+1 standby\")", s)
}

// Estimate is a bounded what-if answer for one scenario.
type Estimate struct {
	Scenario   string  `json:"scenario"`
	Baseline   uint64  `json:"baseline_cycles"`
	Low        uint64  `json:"low_cycles"`  // best case after the change
	High       uint64  `json:"high_cycles"` // worst case (no gain)
	Attributed uint64  `json:"attributed_cycles"`
	GainBound  float64 `json:"gain_bound"` // (Baseline−Low)/Baseline
	Note       string  `json:"note"`
}

// WhatIf estimates the scenario's effect on this run. Unit and standby
// scenarios need the event ring, kept and intact (they go through CritPath
// and inherit its refusals); the slot scenario needs only the exact
// incremental accounting.
func (c *Collector) WhatIf(sc Scenario) (Estimate, error) {
	baseline := c.Cycles()
	est := Estimate{Scenario: sc.Label, Baseline: baseline, High: baseline}
	switch sc.Kind {
	case "unit", "standby":
		cp, err := c.CritPath()
		if err != nil {
			return Estimate{}, err
		}
		if sc.Kind == "unit" {
			est.Attributed = cp.Breakdown.Unit[sc.Unit.String()]
			est.Note = fmt.Sprintf("critical path charges %d cycles to %s arbitration/occupancy", est.Attributed, sc.Unit)
		} else {
			est.Attributed = cp.Breakdown.Standby
			est.Note = fmt.Sprintf("critical path charges %d cycles to standby-station occupancy", est.Attributed)
		}
		if est.Attributed > baseline {
			est.Attributed = baseline
		}
		est.Low = baseline - est.Attributed
	case "slot":
		st := c.CPIStack()
		s := uint64(len(st.Slots))
		if s == 0 {
			return Estimate{}, fmt.Errorf("obs: what-if +1 slot: no slots observed")
		}
		// Perfect-scaling floor: the same work spread over S+1 slots.
		est.Low = (baseline*s + s) / (s + 1) // ceil(T·S/(S+1))
		est.Attributed = baseline - est.Low
		m := st.Machine()
		est.Note = fmt.Sprintf("perfect-scaling floor over %d→%d slots; machine issued %.1f%% of slot-cycles",
			s, s+1, 100*float64(m.Cycles[CPIIssued])/float64(m.Total()))
	default:
		return Estimate{}, fmt.Errorf("obs: empty what-if scenario")
	}
	if baseline > 0 {
		est.GainBound = float64(baseline-est.Low) / float64(baseline)
	}
	return est, nil
}

// ParseScenarios parses a comma-separated scenario list; empty entries
// are skipped.
func ParseScenarios(list string) ([]Scenario, error) {
	var out []Scenario
	for _, part := range strings.Split(list, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		sc, err := ParseScenario(part)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// WhatIfAll parses and estimates a comma-separated scenario list.
func (c *Collector) WhatIfAll(list string) ([]Estimate, error) {
	scs, err := ParseScenarios(list)
	if err != nil {
		return nil, err
	}
	var out []Estimate
	for _, sc := range scs {
		est, err := c.WhatIf(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

// FormatEstimates renders estimates as an aligned text block.
func FormatEstimates(ests []Estimate) string {
	var b strings.Builder
	for _, e := range ests {
		fmt.Fprintf(&b, "what-if %-16s baseline %d cycles → [%d, %d] (≤%.1f%% faster)\n",
			e.Scenario+":", e.Baseline, e.Low, e.High, 100*e.GainBound)
		fmt.Fprintf(&b, "        %s\n", e.Note)
	}
	return b.String()
}
