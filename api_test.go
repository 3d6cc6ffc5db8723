package hirata

// End-to-end tests of the public facade: every exported entry point is
// exercised at least once through realistic use.

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestFacadeAssembleRunInterpret(t *testing.T) {
	prog, err := Assemble(`
		li   r1, 6
		mul  r2, r1, r1
		sw   r2, 100(r0)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(prog.Text)
	if !strings.Contains(dis, "mul r2, r1, r1") {
		t.Errorf("Disassemble missing mul:\n%s", dis)
	}

	m := NewMemory(128)
	steps, err := Interpret(prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4 || m.IntAt(100) != 36 {
		t.Errorf("Interpret: steps=%d mem=%d", steps, m.IntAt(100))
	}

	m2 := NewMemory(128)
	res, err := RunMT(MTConfig{ThreadSlots: 1, StandbyStations: true}, prog.Text, m2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.IntAt(100) != 36 || res.Instructions != 4 {
		t.Error("RunMT wrong result")
	}

	m3 := NewMemory(128)
	rres, err := RunRISC(RISCConfig{}, prog.Text, m3)
	if err != nil {
		t.Fatal(err)
	}
	if m3.IntAt(100) != 36 || rres.CPI() <= 0 {
		t.Error("RunRISC wrong result")
	}
}

func TestFacadeTracedRun(t *testing.T) {
	prog, err := Assemble("li r1, 1\nadd r2, r1, r1\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	m := NewMemory(16)
	if _, err := Run(MTConfig{ThreadSlots: 1, StandbyStations: true}, prog.Text, m, RunOptions{Observers: []Observer{&TextTracer{W: &buf}}}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"issue", "select", "bind"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("pipeline trace missing %q", want)
		}
	}
}

func TestFacadeTraceRecordReplay(t *testing.T) {
	prog, err := Assemble(`
		li   r1, 5
	loop:	lw   r2, 100(r1)
		add  r3, r3, r2
		addi r1, r1, -1
		bnez r1, loop
		sw   r3, 110(r0)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemory(128)
	recs, err := RecordTrace(prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	mix := TraceStats(recs)
	if mix.Loads != 5 || mix.Stores != 1 {
		t.Errorf("mix loads/stores = %d/%d, want 5/1", mix.Loads, mix.Stores)
	}
	res, err := ReplayTraces(MTConfig{ThreadSlots: 2, StandbyStations: true},
		[][]TraceRecord{recs, recs}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 2*uint64(len(recs)) {
		t.Errorf("replayed %d instructions, want %d", res.Instructions, 2*len(recs))
	}
}

func TestFacadeScheduleBlock(t *testing.T) {
	prog, err := Assemble(`
		flw  f1, 100(r0)
		fmul f2, f1, f1
		lw   r1, 101(r0)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	block := prog.Text[:3]
	for _, s := range []Strategy{ScheduleNone, ScheduleStrategyA, ScheduleStrategyB, ScheduleSWP} {
		out, err := ScheduleBlock(block, s, 4, 1)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(out) < len(block) {
			t.Errorf("%v: lost instructions", s)
		}
	}
}

func TestFacadeRemoteMemory(t *testing.T) {
	m := NewMemoryWithRemote(1024, 512, 100)
	if !m.IsRemote(600) || m.IsRemote(100) {
		t.Error("remote classification wrong")
	}
}

// TestAllFormatters drives every report formatter over real (small) runs.
func TestAllFormatters(t *testing.T) {
	small := RayTraceConfig{Rays: 16, Spheres: 4}

	t3, err := RunTable3(Table3Config{Workload: small, Products: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatTable3(t3), "Table 3")

	t4, err := RunTable4(Table4Config{N: 24, Slots: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatTable4(t4), "Table 4")

	rot, err := RunRotationSweep(small, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatRotationSweep(rot), "Rotation")

	pic, err := RunPrivateICache(small)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatPrivateICache(pic), "Private")

	util, err := UtilizationReport(small, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatUtilization(util, 2, 1), "LoadStore")

	fc, err := RunFiniteCache(small, 2, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatFiniteCache(fc, 2), "perfect")

	qd, err := RunQueueDepthAblation(16, 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatQueueDepth(qd, 2), "depth")

	cmt, err := RunConcurrentMT(2, []int{2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatConcurrentMT(cmt), "suppressed")

	ib, err := RunIssueBandwidth(small, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatIssueBandwidth(ib), "Simultaneous")

	da, seq, err := RunDoacross(24, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatDoacross(da, seq, 24), "Doacross")

	swp, err := RunSWPAblation(24, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatSWPAblation(swp), "software pipelining")

	ur, err := RunUnrollAblation(48, []int{1, 2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatUnroll(ur), "unrolling")

	sd, err := RunStandbyDepth(small, 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatStandbyDepth(sd, 2), "Standby")

	cv, err := RunSpeedupCurve(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatSpeedupCurveCSV(cv), "slots,speedup_1ls")

	mp, err := RunMultiprogram([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, FormatMultiprogram(mp), "multiprogramming")
}

func mustContain(t *testing.T, s, sub string) {
	t.Helper()
	if !strings.Contains(s, sub) {
		t.Errorf("output missing %q:\n%s", sub, s)
	}
}

func TestFullReportJSON(t *testing.T) {
	rep, err := RunFullReport(RayTraceConfig{Rays: 16, Spheres: 4}, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Table2 == nil || len(back.Table2.Cells) != len(rep.Table2.Cells) {
		t.Error("Table2 lost in JSON round trip")
	}
	if len(back.Curve) != 8 {
		t.Errorf("curve has %d points, want 8", len(back.Curve))
	}
}
