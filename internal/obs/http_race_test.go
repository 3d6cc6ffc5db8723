package obs

// Race-hardening: every HTTP endpoint must serve consistent snapshots
// while a live simulation writes the collector. Run under -race (the CI
// race step covers this package); the test drives a long-running loop and
// hammers the JSON endpoints concurrently with the run.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/core"
)

const liveLoopSrc = `
	.text
	li   r1, 8000
loop:	addi r2, r1, 7
	addi r1, r1, -1
	bnez r1, loop
	halt
`

// TestHTTPEndpointsDuringLiveRun runs the loop (about 73k ring events)
// with the default ring, which it never fills, with a ring smaller than
// the run and not a whole number of chunks, so the /trace.json and
// /critpath.json readers also race chunk allocation and the wrap, and
// with no ring, where those two endpoints refuse with 503.
func TestHTTPEndpointsDuringLiveRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"default-ring", Options{MetricsInterval: 64, RingCapacity: DefaultRingCapacity}},
		{"wrapping-ring", Options{MetricsInterval: 64, RingCapacity: 3*ringChunk + 5}},
		{"no-ring", Options{MetricsInterval: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) { liveRunEndpoints(t, tc.opt) })
	}
}

// liveRunEndpoints requires 200 from every endpoint during the run, except
// that /trace.json and /critpath.json answer 503 without a ring, and
// /critpath.json may answer 503 once the ring has dropped events.
func liveRunEndpoints(t *testing.T, opt Options) {
	prog, err := asm.Assemble(liveLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ThreadSlots: 2, StandbyStations: true}
	p, err := core.New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg, opt)
	p.Observe(c)
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(c, prog, nil))
	defer srv.Close()

	runDone := make(chan error, 1)
	go func() {
		res, err := p.Run()
		if err == nil {
			c.Finalize(res)
		}
		runDone <- err
	}()

	paths := []string{"/metrics", "/metrics.json", "/trace.json", "/cpistack.json", "/critpath.json", "/profile"}
	var wg sync.WaitGroup
	errs := make(chan error, len(paths)*8)
	for _, path := range paths {
		for k := 0; k < 8; k++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				replays := path == "/trace.json" || path == "/critpath.json"
				ok := resp.StatusCode == http.StatusOK
				switch {
				case opt.RingCapacity <= 0 && replays:
					ok = resp.StatusCode == http.StatusServiceUnavailable
				case path == "/critpath.json":
					ok = ok || resp.StatusCode == http.StatusServiceUnavailable
				}
				if !ok {
					body, _ := io.ReadAll(resp.Body)
					t.Errorf("GET %s during live run: %d: %s", path, resp.StatusCode, body)
					return
				}
				if _, err := io.ReadAll(resp.Body); err != nil {
					errs <- err
				}
			}(path)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	if wraps := opt.RingCapacity > 0 && opt.RingCapacity < DefaultRingCapacity; wraps && c.Dropped() == 0 {
		t.Errorf("a %d-event ring never wrapped: the run no longer outgrows it", opt.RingCapacity)
	}

	// After the run: the accounting must still be exact.
	st := c.CPIStack()
	for _, s := range st.Slots {
		if got := s.Total(); got != st.Cycles {
			t.Errorf("post-run slot %d buckets sum to %d, want %d", s.Slot, got, st.Cycles)
		}
	}
}
