package hirata

import (
	"strings"
	"testing"
)

// TestRunGrid: runGrid returns each machine's result in cell order, a RISC
// cell carrying only the baseline's cycles and instructions, and names the
// machine of a failing cell.
func TestRunGrid(t *testing.T) {
	prog, err := Assemble("li r1, 5\nlw r2, 0(r1)\naddi r2, r2, 1\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	mem := func() (*Memory, error) { return prog.NewMemory(16) }
	m, _ := mem()
	recs, err := RecordTrace(prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTConfig{ThreadSlots: 2, StandbyStations: true}
	res, err := runGrid([]cell{
		riscCell(prog.Text, mem, 1),
		mtCell(prog.Text, mem, cfg, 0, 0),
		{cfg: cfg, traces: [][]TraceRecord{recs, recs}},
	})
	if err != nil {
		t.Fatal(err)
	}

	m, _ = mem()
	base, err := RunRISC(RISCConfig{LoadStoreUnits: 1}, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	if r := res[0]; r.Cycles != base.Cycles || r.Instructions != base.Instructions || r.Units != nil || r.Slots != nil {
		t.Errorf("RISC cell = %+v, want only cycles %d and instructions %d", r, base.Cycles, base.Instructions)
	}
	m, _ = mem()
	mt, err := RunMT(cfg, prog.Text, m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayTraces(cfg, [][]TraceRecord{recs, recs}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Cycles != mt.Cycles || res[1].Instructions != mt.Instructions {
		t.Errorf("core cell: %d cycles, %d instructions; RunMT: %d, %d", res[1].Cycles, res[1].Instructions, mt.Cycles, mt.Instructions)
	}
	if res[2].Cycles != replay.Cycles || res[2].Instructions != replay.Instructions {
		t.Errorf("replay cell: %d cycles, %d instructions; ReplayTraces: %d, %d", res[2].Cycles, res[2].Instructions, replay.Cycles, replay.Instructions)
	}

	_, err = runGrid([]cell{
		riscCell(prog.Text, mem, 1),
		mtCell(prog.Text, mem, MTConfig{ThreadSlots: 65, QueueDepth: 4}),
	})
	if err == nil || !strings.HasPrefix(err.Error(), "core ThreadSlots=65 QueueDepth=4 ContextFrames=65: ") {
		t.Errorf("error = %v, want it to name the failing machine", err)
	}
}
