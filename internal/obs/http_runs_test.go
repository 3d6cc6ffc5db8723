package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/mem"
	"hirata/internal/runledger"
)

// ledgerRecord fabricates one run record for the HTTP tests.
func ledgerRecord(tag string, slots int, cycles uint64) *runledger.RunRecord {
	cfg := core.Config{ThreadSlots: slots}
	pend := runledger.Begin(cfg, []isa.Instruction{isa.Nop()}, mem.NewMemory(8), nil)
	rows := make([]core.SlotStat, slots)
	for s := range rows {
		st := core.SlotStat{Issued: cycles / 2}
		st.Stalls[core.StallData] = cycles / 4
		rows[s] = st
	}
	res := core.Result{Cycles: cycles, Instructions: cycles / 2, Slots: rows}
	return pend.Finish(res, tag)
}

func TestRunsEndpoints(t *testing.T) {
	c, _, prog := runFib(t, Options{})
	led := runledger.NewMemory()
	recA := ledgerRecord("a", 2, 1000)
	recB := ledgerRecord("b", 4, 2000)
	hashA, _, err := led.Append(recA)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := led.Append(recB); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(c, prog, led))
	defer srv.Close()

	// Index lists both records.
	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Records int `json:"records"`
		Runs    []struct {
			Hash string `json:"hash"`
			Tag  string `json:"tag"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || index.Records != 2 || len(index.Runs) != 2 {
		t.Fatalf("GET /runs: status %d, index %+v", resp.StatusCode, index)
	}

	// Fetch by content-hash prefix round-trips the record.
	resp, err = http.Get(srv.URL + "/runs/" + hashA[:12])
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Hash   string `json:"hash"`
		Record struct {
			Tag    string `json:"tag"`
			Result struct {
				Cycles uint64 `json:"cycles"`
			} `json:"result"`
		} `json:"record"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || env.Hash != hashA || env.Record.Tag != "a" || env.Record.Result.Cycles != 1000 {
		t.Fatalf("GET /runs/%s: status %d, envelope %+v", hashA[:12], resp.StatusCode, env)
	}

	// Unknown selector is a 404, not an error page.
	resp, err = http.Get(srv.URL + "/runs/zzzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /runs/zzzz: status %d, want 404", resp.StatusCode)
	}

	// /metrics carries the ledger series after the simulation series.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "hirata_cpi_slot_cycles_total") {
		t.Error("/metrics lost the simulation series")
	}
	if !strings.Contains(body, "hirata_runledger_records 2") {
		t.Errorf("/metrics lacks the ledger series:\n%s", tail(body))
	}
}

func TestRunsEndpointsDetached(t *testing.T) {
	c, _, prog := runFib(t, Options{})
	srv := httptest.NewServer(Handler(c, prog, nil))
	defer srv.Close()
	for _, path := range []string{"/runs", "/runs/abc"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s without a ledger: status %d, want 503", path, resp.StatusCode)
		}
	}
	// A detached ledger must not break /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); strings.Contains(body, "hirata_runledger_") {
		t.Error("/metrics exposes ledger series without a ledger")
	}
}

// TestRunsConcurrentRecordWhileServing appends records while clients read
// the index, individual runs and /metrics; meaningful under -race.
func TestRunsConcurrentRecordWhileServing(t *testing.T) {
	c, _, prog := runFib(t, Options{})
	led := runledger.NewMemory()
	srv := httptest.NewServer(Handler(c, prog, led))
	defer srv.Close()

	const writers, readers, perWriter = 4, 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := ledgerRecord(fmt.Sprintf("w%d-%d", w, i), 2, uint64(100+10*w+i))
				if _, _, err := led.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				for _, path := range []string{"/runs", "/runs/ffff", "/metrics"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	if got := led.Len(); got != writers*perWriter {
		t.Fatalf("ledger holds %d records after concurrent writes, want %d", got, writers*perWriter)
	}
	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Records int `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if index.Records != writers*perWriter {
		t.Fatalf("/runs reports %d records, want %d", index.Records, writers*perWriter)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 12 {
		lines = lines[len(lines)-12:]
	}
	return strings.Join(lines, "\n")
}
