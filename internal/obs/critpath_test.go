package obs

// Critical-path invariants on the fib example: the reconstructed graph
// covers every issued instruction, the path is non-empty and bounded by
// the run length, the breakdown decomposes the path cycles exactly, and
// the analysis refuses to run on a truncated event ring or without one.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCritPathFib(t *testing.T) {
	c, res, prog := runFib(t, Options{RingCapacity: DefaultRingCapacity})
	cp, err := c.CritPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycles != res.Cycles {
		t.Errorf("CritPath.Cycles = %d, Result.Cycles = %d", cp.Cycles, res.Cycles)
	}
	if got, want := uint64(cp.GraphNodes), res.Instructions; got != want {
		t.Errorf("graph has %d nodes, run issued %d instructions", got, want)
	}
	if cp.PathCycles == 0 || cp.PathCycles > cp.Cycles {
		t.Errorf("path cycles %d outside (0, %d]", cp.PathCycles, cp.Cycles)
	}
	if cp.PathLen == 0 || cp.PathLen > cp.GraphNodes {
		t.Errorf("path length %d outside (0, %d]", cp.PathLen, cp.GraphNodes)
	}
	if got := cp.Breakdown.total(); got != cp.PathCycles {
		t.Errorf("breakdown sums to %d, path has %d cycles", got, cp.PathCycles)
	}
	var pcSum uint64
	for _, st := range cp.PCs {
		pcSum += st.Cycles
	}
	if pcSum != cp.PathCycles {
		t.Errorf("per-PC attribution sums to %d, path has %d cycles", pcSum, cp.PathCycles)
	}
	if len(cp.Steps) != cp.PathLen {
		t.Errorf("%d steps for a path of %d instructions", len(cp.Steps), cp.PathLen)
	}
	var stepSum uint64
	for i, s := range cp.Steps {
		stepSum += s.Cycles
		if i > 0 && s.Issue < cp.Steps[i-1].Issue {
			t.Errorf("step %d issued at %d, before its predecessor at %d", i, s.Issue, cp.Steps[i-1].Issue)
		}
	}
	if stepSum != cp.PathCycles {
		t.Errorf("step charges sum to %d, path has %d cycles", stepSum, cp.PathCycles)
	}
	// fib is data-dependence bound: the path must charge data cycles.
	if cp.Breakdown.Data == 0 {
		t.Error("fib critical path charges no data-dependence cycles")
	}

	// The renderers must agree with the analysis.
	var jbuf bytes.Buffer
	if err := cp.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PathCycles uint64 `json:"path_cycles"`
		GraphNodes int    `json:"graph_nodes"`
	}
	if err := json.Unmarshal(jbuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.PathCycles != cp.PathCycles || doc.GraphNodes != cp.GraphNodes {
		t.Errorf("JSON doc (%d, %d) disagrees with analysis (%d, %d)",
			doc.PathCycles, doc.GraphNodes, cp.PathCycles, cp.GraphNodes)
	}
	var tbuf bytes.Buffer
	if err := cp.WriteText(&tbuf, prog); err != nil {
		t.Fatal(err)
	}
	out := tbuf.String()
	if !strings.Contains(out, "critical path:") || !strings.Contains(out, "line ") {
		t.Errorf("text report missing headers or source annotation:\n%s", out)
	}
}

func TestCritPathDeterministic(t *testing.T) {
	c1, _, _ := runFib(t, Options{RingCapacity: DefaultRingCapacity})
	c2, _, _ := runFib(t, Options{RingCapacity: DefaultRingCapacity})
	cp1, err := c1.CritPath()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := c2.CritPath()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(cp1)
	j2, _ := json.Marshal(cp2)
	if !bytes.Equal(j1, j2) {
		t.Error("critical path differs across identical runs")
	}
}

func TestCritPathRefusesDroppedEvents(t *testing.T) {
	c, _, _ := runFib(t, Options{RingCapacity: 32})
	if c.Dropped() == 0 {
		t.Fatal("fib with a 32-event ring did not overflow; the test needs drops")
	}
	if _, err := c.CritPath(); err == nil {
		t.Fatal("CritPath accepted a ring that dropped events")
	} else if !strings.Contains(err.Error(), "RingCapacity") {
		t.Errorf("refusal error does not mention the remedy: %v", err)
	}
}
