package hirata

// The legacy-core golden. Before the event-driven dirty-set core became
// the only cycle loop, the simulator carried a second one that scanned
// every slot, unit, queue and fetch unit each cycle, kept as a
// differential reference. Its results over that differential matrix are
// recorded in testdata/legacy_core.golden.json, one entry per simulation:
// the input digest, cycles and instructions, sha256 digests of the Result
// JSON and the final memory image, the error string of runs that fail, and
// for the observed run the digest of the Collector's metrics JSON.
//
// Each TestEventCoreDifferential* test replays one workload group of that
// matrix and requires every field to match the recording. A changed input
// digest fails as "input changed" — the case no longer simulates what was
// recorded — rather than as a core regression. TestLegacyCoreGolden
// requires the cases and the entries to correspond one to one, and with
// -update rewrites the file from the current core (only for a deliberate
// change of the recorded matrix or of simulated timing):
//
//	go test -run TestLegacyCoreGolden -update .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hirata/internal/runledger"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/legacy_core.golden.json")

var goldenFile = filepath.Join("testdata", "legacy_core.golden.json")

// goldenEntry is one recorded simulation.
type goldenEntry struct {
	Name string `json:"name"`
	// Input is the run key (runledger.Begin) of a program run, or for a
	// trace replay the sha256 of the canonical config and trace records.
	Input        string `json:"input"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	Result       string `json:"result_sha256"`
	Memory       string `json:"memory_sha256,omitempty"`
	Metrics      string `json:"metrics_sha256,omitempty"`
	Error        string `json:"error,omitempty"`
}

// goldenCase is one simulation of the matrix: a program run (text, mkMem,
// startPCs) or a trace replay (traces).
type goldenCase struct {
	name     string // subtest name within its group; "" for a lone case
	cfg      MTConfig
	text     []Instruction
	mkMem    func() (*Memory, error)
	startPCs []int64
	traces   [][]TraceRecord
	observed bool // run under a Collector and digest its metrics JSON
}

// goldenGroup is one workload group of the matrix; its cases run under
// TestEventCoreDifferential<name>.
type goldenGroup struct {
	name  string
	cases func(t *testing.T) []goldenCase
}

// entryName is the golden entry name of a case in group g.
func entryName(g string, c goldenCase) string {
	if c.name == "" {
		return g
	}
	return g + "/" + c.name
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runGoldenCase simulates one case and digests its outcome. The input
// digest is taken before the run, which mutates the memory image.
func runGoldenCase(t *testing.T, group string, c goldenCase) goldenEntry {
	t.Helper()
	e := goldenEntry{Name: entryName(group, c)}
	var (
		res MTResult
		err error
		m   *Memory
	)
	if c.traces != nil {
		h := sha256.New()
		fmt.Fprintf(h, "%s\n", c.cfg.CanonicalConfig())
		if err := json.NewEncoder(h).Encode(c.traces); err != nil {
			t.Fatal(err)
		}
		e.Input = hex.EncodeToString(h.Sum(nil))
		res, err = ReplayTraces(c.cfg, c.traces, RunOptions{})
	} else {
		if m, err = c.mkMem(); err != nil {
			t.Fatal(err)
		}
		e.Input = runledger.Begin(c.cfg, c.text, m, c.startPCs).Key()
		if c.observed {
			col := NewCollector(c.cfg, CollectorOptions{MetricsInterval: 64})
			res, err = Run(c.cfg, c.text, m, RunOptions{Observers: []Observer{col}}, c.startPCs...)
			var buf bytes.Buffer
			if werr := col.WriteMetricsJSON(&buf); werr != nil {
				t.Fatal(werr)
			}
			e.Metrics = sha256Hex(buf.Bytes())
		} else {
			res, err = RunMT(c.cfg, c.text, m, c.startPCs...)
		}
	}
	if err != nil {
		e.Error = err.Error()
	}
	js, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	e.Cycles, e.Instructions, e.Result = res.Cycles, res.Instructions, sha256Hex(js)
	if m != nil {
		h := sha256.New()
		if err := m.WriteImage(h); err != nil {
			t.Fatal(err)
		}
		e.Memory = hex.EncodeToString(h.Sum(nil))
	}
	return e
}

// loadGolden reads the recorded entries, keyed by name.
func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (record it with go test -run TestLegacyCoreGolden -update)", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	byName := make(map[string]goldenEntry, len(entries))
	for _, e := range entries {
		if _, dup := byName[e.Name]; dup {
			t.Fatalf("%s: duplicate entry %q", goldenFile, e.Name)
		}
		byName[e.Name] = e
	}
	return byName
}

// checkGoldenGroup replays one workload group and compares every case with
// its recorded entry.
func checkGoldenGroup(t *testing.T, group string) {
	if *updateGolden {
		t.Skip("golden file is being rewritten by TestLegacyCoreGolden")
	}
	var g *goldenGroup
	for i := range goldenGroups {
		if goldenGroups[i].name == group {
			g = &goldenGroups[i]
		}
	}
	if g == nil {
		t.Fatalf("no golden group %q", group)
	}
	golden := loadGolden(t)
	for _, c := range g.cases(t) {
		check := func(t *testing.T) {
			name := entryName(group, c)
			want, ok := golden[name]
			if !ok {
				t.Fatalf("%s: no golden entry (record it with go test -run TestLegacyCoreGolden -update)", name)
			}
			got := runGoldenCase(t, group, c)
			if got.Input != want.Input {
				t.Fatalf("%s: input changed (digest %s, recorded %s): the case no longer simulates what the golden recorded",
					name, got.Input, want.Input)
			}
			if got != want {
				t.Errorf("%s: outcome differs from the recorded legacy core:\n  got:  %+v\n  want: %+v",
					name, got, want)
			}
		}
		if c.name == "" {
			check(t)
		} else {
			t.Run(c.name, check)
		}
	}
}

// TestLegacyCoreGolden requires every case of the matrix to have exactly
// one golden entry and every entry a case. With -update it re-records the
// file.
func TestLegacyCoreGolden(t *testing.T) {
	var names []string
	var entries []goldenEntry
	for _, g := range goldenGroups {
		for _, c := range g.cases(t) {
			names = append(names, entryName(g.name, c))
			if *updateGolden {
				entries = append(entries, runGoldenCase(t, g.name, c))
			}
		}
	}
	if *updateGolden {
		js, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := loadGolden(t)
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("case %q is defined twice", n)
		}
		seen[n] = true
		if _, ok := golden[n]; !ok {
			t.Errorf("case %q has no golden entry", n)
		}
	}
	for n := range golden {
		if !seen[n] {
			t.Errorf("golden entry %q has no case", n)
		}
	}
}

// goldenGroups is the recorded matrix: the workloads, machine shapes and
// configurations of the former two-core differential suite.
var goldenGroups = []goldenGroup{
	{"Fib", func(t *testing.T) []goldenCase {
		prog := loadProgram(t, "fib.s")
		return []goldenCase{{cfg: MTConfig{ThreadSlots: 1, StandbyStations: true}, text: prog.Text,
			mkMem: func() (*Memory, error) { return prog.NewMemory(128) }}}
	}},
	{"Sort", func(t *testing.T) []goldenCase {
		prog := loadProgram(t, "sort.s")
		return []goldenCase{{cfg: MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}, text: prog.Text,
			mkMem: func() (*Memory, error) { return prog.NewMemory(64) }}}
	}},
	{"Radiosity", func(t *testing.T) []goldenCase {
		rd, err := BuildRadiosity(RadiosityConfig{Patches: 12, Sweeps: 2})
		if err != nil {
			t.Fatal(err)
		}
		return []goldenCase{{cfg: MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true}, text: rd.Prog.Text,
			mkMem: func() (*Memory, error) { return rd.NewMemory(8) }}}
	}},
	{"RayTrace", func(t *testing.T) []goldenCase {
		rt, err := BuildRayTrace(RayTraceConfig{Rays: 16, Spheres: 6})
		if err != nil {
			t.Fatal(err)
		}
		var cases []goldenCase
		for _, slots := range []int{2, 8} {
			cases = append(cases, goldenCase{name: fmt.Sprintf("S%d", slots),
				cfg:  MTConfig{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true},
				text: rt.Par.Text, mkMem: func() (*Memory, error) { return rt.NewMemory(rt.Par, slots) }})
		}
		return cases
	}},
	// The machine shapes with distinct issue paths: a wide window (which
	// never caches head stalls), latch-only issue without standby
	// stations, and a short rotation interval.
	{"IssueWidths", func(t *testing.T) []goldenCase {
		rt, err := BuildRayTrace(RayTraceConfig{Rays: 12, Spheres: 4})
		if err != nil {
			t.Fatal(err)
		}
		var cases []goldenCase
		for _, v := range []struct {
			name string
			cfg  MTConfig
		}{
			{"width2", MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true, IssueWidth: 2}},
			{"latch", MTConfig{ThreadSlots: 4, LoadStoreUnits: 2}},
			{"rotation3", MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true, RotationInterval: 3}},
		} {
			slots := v.cfg.ThreadSlots
			cases = append(cases, goldenCase{name: v.name, cfg: v.cfg, text: rt.Par.Text,
				mkMem: func() (*Memory, error) { return rt.NewMemory(rt.Par, slots) }})
		}
		return cases
	}},
	// Long remote-latency quiescent stretches alternating with
	// data-absence context switches, with switching on and suppressed.
	{"ConcurrentMT", func(t *testing.T) []goldenCase {
		prog, err := Assemble(concurrentMTSrc)
		if err != nil {
			t.Fatal(err)
		}
		mkMem := func() (*Memory, error) {
			m := NewMemoryWithRemote(8192, 4096, 300)
			for i := int64(4096); i < 8192; i++ {
				m.SetInt(i, i%97)
			}
			return m, nil
		}
		var cases []goldenCase
		for _, suppress := range []bool{false, true} {
			name := "switching"
			if suppress {
				name = "suppressed"
			}
			cases = append(cases, goldenCase{name: name,
				cfg:  MTConfig{ThreadSlots: 1, ContextFrames: 4, StandbyStations: true, ExplicitRotation: suppress},
				text: prog.Text, mkMem: mkMem, startPCs: []int64{0, 0, 0, 0}})
		}
		return cases
	}},
	{"TraceReplay", func(t *testing.T) []goldenCase {
		rt, err := BuildRayTrace(RayTraceConfig{Rays: 8, Spheres: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, err := rt.NewMemory(rt.Seq, 1)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := RecordTrace(rt.Seq.Text, m)
		if err != nil {
			t.Fatal(err)
		}
		return []goldenCase{{cfg: MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true},
			traces: [][]TraceRecord{recs, recs, recs, recs}}}
	}},
	// Every MinC program shipped under examples/programs, at several
	// machine widths.
	{"MinC", func(t *testing.T) []goldenCase {
		paths, err := filepath.Glob(filepath.Join("examples", "programs", "*.mc"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatal("no MinC programs found under examples/programs")
		}
		var cases []goldenCase
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := CompileMinC(string(src))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, slots := range []int{1, 4, 8} {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/S%d", strings.TrimSuffix(filepath.Base(path), ".mc"), slots),
					cfg:  MTConfig{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true},
					text: prog.Text,
					mkMem: func() (*Memory, error) {
						m, err := prog.NewMemory(1024)
						if err != nil {
							return nil, err
						}
						SetMinCThreads(prog, m, slots)
						return m, nil
					}})
			}
		}
		return cases
	}},
	// An observed run: observers pin the machine to cycle-by-cycle
	// stepping, so the metrics report covers the per-cycle paths, not just
	// the quiescent jumps.
	{"MetricsJSON", func(t *testing.T) []goldenCase {
		rt, err := BuildRayTrace(RayTraceConfig{Rays: 12, Spheres: 4})
		if err != nil {
			t.Fatal(err)
		}
		return []goldenCase{{cfg: MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}, text: rt.Par.Text,
			mkMem: func() (*Memory, error) { return rt.NewMemory(rt.Par, 4) }, observed: true}}
	}},
	// Every MinC fuzz-corpus entry that compiles and fits its memory. The
	// fuzzer finds control shapes the curated examples miss; runs that
	// fail (runaway, deadlock) must fail with the recorded error.
	{"FuzzCorpus", func(t *testing.T) []goldenCase {
		dir := filepath.Join("internal", "minc", "testdata", "fuzz", "FuzzCompile")
		files, err := os.ReadDir(dir)
		if err != nil {
			return nil
		}
		var cases []goldenCase
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			src, ok := corpusString(string(data))
			if !ok {
				continue
			}
			prog, err := CompileMinC(src)
			if err != nil {
				continue // the fuzzer keeps crashers and rejects alike
			}
			if _, err := prog.NewMemory(4096); err != nil {
				continue
			}
			for _, slots := range []int{1, 4} {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/S%d", f.Name(), slots),
					cfg:  MTConfig{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true, MaxCycles: 2_000_000},
					text: prog.Text,
					mkMem: func() (*Memory, error) {
						m, err := prog.NewMemory(4096)
						if err != nil {
							return nil, err
						}
						SetMinCThreads(prog, m, slots)
						return m, nil
					}})
			}
		}
		return cases
	}},
}

func TestEventCoreDifferentialFib(t *testing.T)          { checkGoldenGroup(t, "Fib") }
func TestEventCoreDifferentialSort(t *testing.T)         { checkGoldenGroup(t, "Sort") }
func TestEventCoreDifferentialRadiosity(t *testing.T)    { checkGoldenGroup(t, "Radiosity") }
func TestEventCoreDifferentialRayTrace(t *testing.T)     { checkGoldenGroup(t, "RayTrace") }
func TestEventCoreDifferentialIssueWidths(t *testing.T)  { checkGoldenGroup(t, "IssueWidths") }
func TestEventCoreDifferentialConcurrentMT(t *testing.T) { checkGoldenGroup(t, "ConcurrentMT") }
func TestEventCoreDifferentialTraceReplay(t *testing.T)  { checkGoldenGroup(t, "TraceReplay") }
func TestEventCoreDifferentialMinC(t *testing.T)         { checkGoldenGroup(t, "MinC") }
func TestEventCoreDifferentialMetricsJSON(t *testing.T)  { checkGoldenGroup(t, "MetricsJSON") }
func TestEventCoreDifferentialFuzzCorpus(t *testing.T)   { checkGoldenGroup(t, "FuzzCorpus") }

// corpusString extracts the string argument from a go-fuzz corpus file
// ("go test fuzz v1" followed by one string(...) line).
func corpusString(data string) (string, bool) {
	for _, line := range strings.Split(data, "\n") {
		rest, ok := strings.CutPrefix(line, "string(")
		if !ok {
			continue
		}
		rest = strings.TrimSuffix(rest, ")")
		s, err := strconv.Unquote(rest)
		if err != nil {
			return "", false
		}
		return s, true
	}
	return "", false
}
