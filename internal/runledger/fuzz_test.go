package runledger

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// envelopeLine renders rec as one ledger line with its correct content hash.
func envelopeLine(t testing.TB, rec *RunRecord) []byte {
	payload, err := rec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(envelope{Hash: digestBytes(payload), Record: payload})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// FuzzOpen feeds arbitrary bytes to Open as a ledger file. Open must return
// a ledger or an error, never both, and never panic; and nothing a loaded
// ledger feeds the diff, regression and /runs exports may panic either.
//
// Seeds: testdata/recorded.jsonl (written by `hirata-report record -tag rt
// -rays 4 -spheres 2`, at -slots 2 then -slots 4), its first line cut
// short, that line with a wrong hash, and a hand-made record with a
// correct hash whose slot rows are shorter than its bucket and stall lists.
func FuzzOpen(f *testing.F) {
	recorded, err := os.ReadFile(filepath.Join("testdata", "recorded.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	first, _, _ := bytes.Cut(recorded, []byte("\n"))
	f.Add(recorded)
	f.Add(first[:len(first)/2])
	f.Add(bytes.Replace(first, []byte(`"hash":"`), []byte(`"hash":"0`), 1))
	short := &RunRecord{
		Format: recordFormat, Key: "k", Tag: "short",
		Result: ResultRef{Cycles: 10, Instructions: 4,
			Units: []UnitRef{{Class: "IntALU", BusyCycles: 3}},
			Slots: []SlotRef{{Issued: 4, Stalls: []uint64{0}}, {}}},
		Stack:    CycleStack{Buckets: []string{"issued", "idle", "stall"}, Slots: [][]int64{{4}, {}}},
		ExactCPI: &CycleStack{Buckets: []string{"issued"}, Slots: [][]int64{{4, 6, 1}}},
	}
	longer := *short
	longer.Result.Cycles, longer.Stack.Slots = 12, [][]int64{{4, 8}}
	f.Add(append(envelopeLine(f, short), envelopeLine(f, &longer)...))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "ledger.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if (l == nil) == (err == nil) {
			t.Fatalf("Open returned ledger %v and error %v: want exactly one", l != nil, err)
		}
		if l == nil {
			return
		}
		entries := l.Entries()
		for _, a := range entries {
			for _, b := range entries {
				if d, err := Compute(a.Record, b.Record); err == nil {
					_ = d.Format()
					if err := d.WriteJSON(io.Discard); err != nil {
						t.Fatalf("diff WriteJSON: %v", err)
					}
				}
			}
			l.RunJSON(a.Hash)
			l.RunJSON(a.Record.Key)
		}
		Regress(entries, 0)
		if err := l.WriteRunsIndex(io.Discard); err != nil {
			t.Fatalf("WriteRunsIndex: %v", err)
		}
		if err := l.WriteRunsPrometheus(io.Discard); err != nil {
			t.Fatalf("WriteRunsPrometheus: %v", err)
		}
	})
}
