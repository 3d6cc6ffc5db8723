package runledger

import (
	"fmt"
	"strings"
	"testing"

	"hirata/internal/core"
)

func TestRegressLedger(t *testing.T) {
	l := NewMemory()
	append3 := func(tag string, cycles ...uint64) {
		for i, c := range cycles {
			rec := synthRecord(t, tag, core.Config{ThreadSlots: 2}, c)
			// Distinct revisions keep the shift report meaningful.
			rec.Revision = fmt.Sprintf("rev%d", i)
			if _, _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	append3("steady", 1000, 1000, 1000)
	append3("shifting", 1000, 1000, 1100)

	shifts := Regress(l.Entries(), 0)
	if len(shifts) != 1 {
		t.Fatalf("Regress found %d shift(s), want 1: %+v", len(shifts), shifts)
	}
	s := shifts[0]
	if s.Lineage != "shifting" || s.Delta != 100 || s.CyclesFrom != 1000 || s.CyclesTo != 1100 {
		t.Fatalf("shift = %+v", s)
	}
	if len(s.Buckets) == 0 {
		t.Fatal("shift carries no bucket attribution")
	}
	var sum int64
	for _, b := range s.Buckets {
		sum += b.Delta
	}
	if want := int64(2 * 100); sum != want { // 2 slots × 100 extra cycles
		t.Fatalf("attribution sums to %d slot-cycles, want %d", sum, want)
	}

	// Tolerance suppresses a 10% move at 15% tolerance.
	if got := Regress(l.Entries(), 0.15); len(got) != 0 {
		t.Fatalf("Regress(tol=0.15) found %d shift(s), want 0", len(got))
	}

	var buf strings.Builder
	WriteShifts(&buf, shifts)
	if !strings.Contains(buf.String(), "shifting") || !strings.Contains(buf.String(), "+100") {
		t.Errorf("WriteShifts output unexpected:\n%s", buf.String())
	}
	if sum := FormatShiftSummary(shifts); !strings.Contains(sum, "1 cycle-count shift") {
		t.Errorf("FormatShiftSummary = %q", sum)
	}
	if sum := FormatShiftSummary(nil); !strings.Contains(sum, "no cycle-count shifts") {
		t.Errorf("FormatShiftSummary(nil) = %q", sum)
	}
}
