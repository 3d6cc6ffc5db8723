package hirata

// Validates the obs what-if estimator the only way that counts: against
// actual re-simulations with the changed core.Config. The estimator's
// claim is an interval [Low, High] for the re-run's cycle count; these
// tests run the paper's ray-trace workload, ask for "+1 load/store unit",
// "+1 ALU" and "+1 thread slot", then perform the real re-runs
// (Config.ExtraUnits / LoadStoreUnits / ThreadSlots) and check the
// interval brackets the measurement.

import (
	"testing"

	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/obs"
)

// whatIfTolerance absorbs second-order scheduling effects the bound cannot
// model (a relaxed resource reshuffles arbitration); the interval must
// still bracket the re-run within 2%.
const whatIfTolerance = 0.02

func rayTraceObserved(t *testing.T, cfg core.Config) (*Collector, MTResult, *RayTrace) {
	t.Helper()
	rt, err := BuildRayTrace(RayTraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.NewMemory(rt.Par, cfg.ThreadSlots)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg, CollectorOptions{RingCapacity: DefaultRingCapacity})
	res, err := Run(cfg, rt.Par.Text, m, RunOptions{Observers: []Observer{c}})
	if err != nil {
		t.Fatal(err)
	}
	return c, res, rt
}

func rayTraceRerun(t *testing.T, rt *RayTrace, cfg core.Config) MTResult {
	t.Helper()
	m, err := rt.NewMemory(rt.Par, cfg.ThreadSlots)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMT(cfg, rt.Par.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkBracket asserts actual ∈ [Low·(1−tol), High·(1+tol)].
func checkBracket(t *testing.T, est obs.Estimate, actual uint64) {
	t.Helper()
	low := float64(est.Low) * (1 - whatIfTolerance)
	high := float64(est.High) * (1 + whatIfTolerance)
	if f := float64(actual); f < low || f > high {
		t.Errorf("%s: actual re-run took %d cycles, outside estimate [%d, %d] (±%.0f%%)",
			est.Scenario, actual, est.Low, est.High, 100*whatIfTolerance)
	}
	if actual > est.Baseline+est.Baseline/50 {
		t.Errorf("%s: relaxing the machine slowed the run: %d → %d cycles", est.Scenario, est.Baseline, actual)
	}
}

func TestWhatIfUnitBoundsAgainstRerun(t *testing.T) {
	base := core.Config{ThreadSlots: 8, LoadStoreUnits: 1, StandbyStations: true, RotationInterval: 8}
	c, res, rt := rayTraceObserved(t, base)

	estLS, err := c.WhatIf(obs.Scenario{Kind: "unit", Unit: isa.UnitLoadStore, Label: "+1 LoadStore"})
	if err != nil {
		t.Fatal(err)
	}
	estALU, err := c.WhatIf(obs.Scenario{Kind: "unit", Unit: isa.UnitIntALU, Label: "+1 IntALU"})
	if err != nil {
		t.Fatal(err)
	}
	if estLS.Baseline != res.Cycles {
		t.Fatalf("estimate baseline %d, observed run took %d", estLS.Baseline, res.Cycles)
	}

	// The 8-thread ray trace on one load/store unit is LS-bound (the paper's
	// Table 2 shows the second LS unit matters); the critical path must
	// charge more to load/store contention than to the ALUs.
	if estLS.Attributed <= estALU.Attributed {
		t.Errorf("path charges LS %d ≤ ALU %d cycles; expected the 1-LS machine to be LS-bound",
			estLS.Attributed, estALU.Attributed)
	}

	lsCfg := base
	lsCfg.LoadStoreUnits = 2
	checkBracket(t, estLS, rayTraceRerun(t, rt, lsCfg).Cycles)

	aluCfg := base
	aluCfg.ExtraUnits[isa.UnitIntALU] = 1
	checkBracket(t, estALU, rayTraceRerun(t, rt, aluCfg).Cycles)
}

func TestWhatIfSlotBoundAgainstRerun(t *testing.T) {
	base := core.Config{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true, RotationInterval: 8}
	c, res, rt := rayTraceObserved(t, base)

	est, err := c.WhatIf(obs.Scenario{Kind: "slot", Label: "+1 thread slot"})
	if err != nil {
		t.Fatal(err)
	}
	if est.Baseline != res.Cycles {
		t.Fatalf("estimate baseline %d, observed run took %d", est.Baseline, res.Cycles)
	}
	// The +1-slot re-run needs a memory image built for 5 workers: the
	// parallel program reads its thread count from memory at fork time.
	grown := base
	grown.ThreadSlots = 5
	checkBracket(t, est, rayTraceRerun(t, rt, grown).Cycles)
}
