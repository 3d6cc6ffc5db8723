package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strings"

	"hirata/internal/asm"
)

// RunsSource is the cross-run observability surface attached to /runs:
// implemented by internal/runledger's Ledger. Defined here so obs does not
// import runledger.
type RunsSource interface {
	// WriteRunsIndex writes the JSON index of recorded runs (/runs).
	WriteRunsIndex(w io.Writer) error
	// RunJSON resolves a run selector (content-hash or run-key prefix) to
	// the record's JSON envelope; ok=false means no unambiguous match.
	RunJSON(sel string) ([]byte, bool)
	// WriteRunsPrometheus appends the ledger's metrics to /metrics.
	WriteRunsPrometheus(w io.Writer) error
}

// Handler returns the live observability surface for a running (or
// finished) simulation:
//
//	/            index
//	/metrics     Prometheus text exposition (totals + latest interval)
//	/metrics.json totals and the interval time series as JSON
//	/trace.json  Chrome Trace Event JSON of the ring buffer (Perfetto)
//	/profile     per-PC hotspot report (annotated disassembly)
//	/debug/pprof/... the standard Go profiler endpoints
//
// /trace.json and /critpath.json replay the event ring and serve 503 when
// c keeps none. prog supplies the profiler's source-line map and may be
// nil. runs backs /runs, /runs/<sel> and the hirata_runledger_* series
// appended to /metrics; when it is nil, /runs serves 503. The collector is
// written by the simulation loop concurrently; every handler works from a
// consistent snapshot.
func Handler(c *Collector, prog *asm.Program, runs RunsSource) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "hirata simulator observability\n\n"+
			"  /metrics        Prometheus text format\n"+
			"  /metrics.json   totals + interval time series\n"+
			"  /trace.json     Chrome Trace Event JSON (load in ui.perfetto.dev)\n"+
			"  /profile        per-PC hotspot report\n"+
			"  /cpistack.json  per-slot CPI-stack cycle accounting\n"+
			"  /critpath.json  dynamic critical path with breakdown\n"+
			"  /runs           cross-run ledger index (with /runs/<hash-or-key-prefix>)\n"+
			"  /debug/pprof/   Go runtime profiles of the simulator itself\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := c.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if runs != nil {
			if err := runs.WriteRunsPrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.WriteMetricsJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		if c.ring.capacity <= 0 {
			http.Error(w, errNoRing.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="hirata-trace.json"`)
		if err := c.WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := c.Profile().WriteAnnotated(w, prog); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/cpistack.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.CPIStack().WriteCPIJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/critpath.json", func(w http.ResponseWriter, r *http.Request) {
		cp, err := c.CritPath()
		if err != nil {
			// There is no ring, or it dropped events; the analysis
			// refuses rather than serving a fictional path.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		cp.Annotate(prog)
		w.Header().Set("Content-Type", "application/json")
		if err := cp.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		if runs == nil {
			http.Error(w, "run ledger not attached (run with -record)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := runs.WriteRunsIndex(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/runs/", func(w http.ResponseWriter, r *http.Request) {
		if runs == nil {
			http.Error(w, "run ledger not attached (run with -record)", http.StatusServiceUnavailable)
			return
		}
		sel := strings.TrimPrefix(r.URL.Path, "/runs/")
		body, ok := runs.RunJSON(sel)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Serve listens on addr and serves Handler in a background goroutine.
// It returns once the listener is bound (so "the server is up" is
// ordered before the simulation starts) along with the bound address —
// useful with ":0" — and a shutdown function.
func Serve(addr string, c *Collector, prog *asm.Program, runs RunsSource) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(c, prog, runs)}
	go func() {
		// Serve returns http.ErrServerClosed on shutdown; anything else is
		// reported through the server's ErrorLog default (stderr).
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), srv.Close, nil
}
