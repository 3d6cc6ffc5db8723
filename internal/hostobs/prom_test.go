package hostobs

// Promlint-style checks on the /hostmetrics exposition, mirroring
// internal/obs's TestPrometheusExpositionLint: HELP/TYPE pairing, hirata_
// namespace, counters end in _total and gauges do not. Host-side values are
// wall-clock timings, so the golden pins names, labels and help text with
// every sample value normalised to V (regenerate with -update).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hirata/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

var hostSample = regexp.MustCompile(`^([a-z_]+)(\{[^}]*\})? [-+0-9.eE]+$`)

func TestHostPrometheusExpositionLint(t *testing.T) {
	prof, _ := runProfiled(t, Options{SampleEvery: 1})
	rec := NewSweepRecorder()
	if _, err := sweep.MapObserved(4, 2, func(i int) (int, error) { return i, nil }, rec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (Export{Prof: prof, Sweep: rec}).WriteHostPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	type meta struct{ help, typ string }
	metas := map[string]meta{}
	var current string
	var normalized []string
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Errorf("line %d: HELP without text: %q", i+1, line)
				continue
			}
			current = fields[0]
			m := metas[current]
			m.help = fields[1]
			metas[current] = m
			normalized = append(normalized, line)
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			if fields[0] != current {
				t.Errorf("line %d: TYPE %s does not follow its HELP (current %s)", i+1, fields[0], current)
			}
			if fields[1] != "counter" && fields[1] != "gauge" {
				t.Errorf("line %d: unknown metric type %q", i+1, fields[1])
			}
			m := metas[fields[0]]
			m.typ = fields[1]
			metas[fields[0]] = m
			normalized = append(normalized, line)
		case line == "":
			t.Errorf("line %d: blank line in exposition", i+1)
		default:
			match := hostSample.FindStringSubmatch(line)
			if match == nil {
				t.Errorf("line %d: unparsable sample: %q", i+1, line)
				continue
			}
			name := match[1]
			m, ok := metas[name]
			if !ok || m.help == "" || m.typ == "" {
				t.Errorf("line %d: sample %s has no preceding # HELP/# TYPE pair", i+1, name)
				continue
			}
			if !strings.HasPrefix(name, "hirata_") {
				t.Errorf("line %d: metric %s outside the hirata_ namespace", i+1, name)
			}
			switch m.typ {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					t.Errorf("line %d: counter %s does not end in _total", i+1, name)
				}
			case "gauge":
				if strings.HasSuffix(name, "_total") {
					t.Errorf("line %d: gauge %s ends in _total", i+1, name)
				}
			}
			normalized = append(normalized, name+match[2]+" V")
		}
	}
	for _, want := range []string{
		"hirata_build_info",
		"hirata_host_phase_nanoseconds_total",
		"hirata_host_skipped_cycles_total",
		"hirata_host_sweep_cells_total",
	} {
		if _, ok := metas[want]; !ok {
			t.Errorf("exposition lacks %s", want)
		}
	}

	got := []byte(strings.Join(normalized, "\n") + "\n")
	golden := filepath.Join("testdata", "host_metrics.golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("normalised exposition differs from %s (run with -update to regenerate);\ngot:\n%s", golden, got)
	}
}
