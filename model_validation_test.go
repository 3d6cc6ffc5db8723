package hirata_test

// This file is the differential half of the analytic performance model
// (internal/model, docs/MODEL.md): the calibrated model re-predicts the
// paper's Tables 2-5 and must land within the pinned error budget of the
// re-simulated cycle counts, never below the lint certificate; and the MinC
// fuzz corpus must flow through the characterizer without panics or
// non-finite output.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hirata"
)

// modelErrBudgetPct is the acceptance threshold on per-point cycle error.
// The measured maxima are well inside it (see docs/MODEL.md); the headroom
// absorbs workload-size jitter, not model regressions.
const modelErrBudgetPct = 15.0

// TestModelValidationTables re-simulates shrunken Tables 2-5 cells and
// checks every model prediction against its measured cycle count.
func TestModelValidationTables(t *testing.T) {
	v, err := hirata.ValidateModel(hirata.ModelValidationConfig{
		Rays: 48, Spheres: 6, LK1N: 50, ListNodes: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Points) == 0 {
		t.Fatal("validation produced no points")
	}
	if v.BoundViolations != 0 {
		t.Fatalf("%d predictions fell below their lint certificate", v.BoundViolations)
	}
	for _, p := range v.Points {
		t.Logf("%-7s %-28s predicted %8d simulated %8d err %+6.1f%%",
			p.Table, p.Label, p.Predicted, p.Simulated, p.ErrPct)
		if math.Abs(p.ErrPct) > modelErrBudgetPct {
			t.Errorf("%s %s: model error %.1f%% exceeds %.0f%% budget",
				p.Table, p.Label, p.ErrPct, modelErrBudgetPct)
		}
		if p.Predicted < uint64(p.Bound) {
			t.Errorf("%s %s: prediction %d below certificate %d",
				p.Table, p.Label, p.Predicted, p.Bound)
		}
	}
	for table, worst := range v.PerTable {
		t.Logf("%s: worst |err| %.1f%%", table, worst)
	}
	// Table 3's D=1 S=2 cell sets IssueWidth 1, which the S=2 ls=2
	// standby anchor leaves at 0. Effective resolves both to the same
	// machine, so the cell is an anchor.
	found := false
	for _, p := range v.Points {
		if p.Table == "table3" && p.Label == "D=1 S=2" {
			found = true
			if !p.Anchor {
				t.Errorf("table3 %s: not marked as an anchor, but its machine is one", p.Label)
			}
		}
	}
	if !found {
		t.Error("no table3 D=1 S=2 point")
	}
	if v.MaxAbsErrPct > modelErrBudgetPct {
		t.Errorf("worst-case model error %.1f%% exceeds %.0f%% budget",
			v.MaxAbsErrPct, modelErrBudgetPct)
	}
}

// TestModelExploreEndToEnd runs the full -explore pipeline on a shrunken
// ray-trace workload: calibrate, search the analytic grid, re-simulate the
// Pareto frontier, and compare.
func TestModelExploreEndToEnd(t *testing.T) {
	rep, err := hirata.RunExplore(hirata.ExploreConfig{
		Workload: hirata.RayTraceConfig{Rays: 48, Spheres: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Searched < 1000 {
		t.Errorf("explored %d configs, want >= 1000", rep.Searched)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	if rep.BoundViolations != 0 {
		t.Fatalf("%d frontier predictions fell below their certificate", rep.BoundViolations)
	}
	for _, p := range rep.Frontier {
		if p.Simulated == 0 {
			t.Errorf("frontier point not re-simulated: %s", p.Describe())
		}
	}
	t.Logf("searched %d, frontier %d, max |err| %.1f%%",
		rep.Searched, len(rep.Frontier), rep.MaxAbsErrPct)
	if rep.MaxAbsErrPct > modelErrBudgetPct {
		t.Errorf("frontier model error %.1f%% exceeds %.0f%% budget",
			rep.MaxAbsErrPct, modelErrBudgetPct)
	}
}

// assertModelRobust runs the static-only predictor over one program on
// each bound-test machine shape: no panics, finite predictions, and never
// below the dependence bound or the combined certificate.
func assertModelRobust(t *testing.T, name string, text []hirata.Instruction) {
	t.Helper()
	w := hirata.NewModelWorkload(name, text)
	for _, cfg := range boundConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("%s/S%d", name, cfg.ThreadSlots), func(t *testing.T) {
			p := w.Predict(cfg)
			b := hirata.StaticBounds(cfg, text)
			if p.Unbounded != b.Unbounded {
				t.Fatalf("model unbounded=%v, certificate unbounded=%v", p.Unbounded, b.Unbounded)
			}
			if p.Unbounded {
				return
			}
			if math.IsNaN(p.Raw) || math.IsInf(p.Raw, 0) {
				t.Fatalf("non-finite prediction %v", p.Raw)
			}
			if p.Cycles < uint64(b.DepBound) {
				t.Fatalf("prediction %d below dependence bound %d", p.Cycles, b.DepBound)
			}
			if p.Cycles < uint64(b.Bound) {
				t.Fatalf("prediction %d below certificate %d", p.Cycles, b.Bound)
			}
		})
	}
}

// TestModelFuzzCorpus pushes every compiling fuzz-corpus program through
// the characterizer; the corpus also keeps crashers and rejects, which the
// compiler filters out here exactly as TestBoundFuzzCorpus does.
func TestModelFuzzCorpus(t *testing.T) {
	dir := filepath.Join("internal", "minc", "testdata", "fuzz", "FuzzCompile")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no fuzz corpus: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		src, ok := hirata.CorpusString(string(data))
		if !ok {
			continue
		}
		prog, err := hirata.CompileMinC(src)
		if err != nil {
			continue
		}
		assertModelRobust(t, e.Name(), prog.Text)
	}
}

// TestModelExamplePrograms does the same over every shipped example, which
// covers the characterizer on hand-written assembly (queue rings, forks,
// kills) the fuzz corpus cannot reach.
func TestModelExamplePrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "programs", "*"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, file := range files {
		ext := filepath.Ext(file)
		if ext != ".s" && ext != ".mc" {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var prog *hirata.Program
		if ext == ".mc" {
			prog, err = hirata.CompileMinC(string(src))
		} else {
			prog, err = hirata.Assemble(string(src))
		}
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		checked++
		assertModelRobust(t, filepath.Base(file), prog.Text)
	}
	if checked == 0 {
		t.Fatal("no example programs found")
	}
}
