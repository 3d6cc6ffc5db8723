package lint

import (
	"path/filepath"
	"runtime"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/workload"
)

// mandelAt8 is examples/programs/mandel.mc linted for an 8-slot run, as
// the repository benchmark's examples jobs lint it.
func mandelAt8(tb testing.TB) factsCase {
	tb.Helper()
	p := loadProgram(tb, filepath.Join("..", "..", "examples", "programs", "mandel.mc"))
	m, err := p.NewMemory(4096)
	if err != nil {
		tb.Fatal(err)
	}
	return factsCase{"mandel.mc/s=8", p, Config{ThreadSlots: 8, InterThread: true, Deadlock: true, MemWords: m.Size()}}
}

func analyzeCases(tb testing.TB) []factsCase {
	tb.Helper()
	rd, err := workload.BuildRadiosity(workload.RadiosityConfig{Patches: 12, Sweeps: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rm, err := rd.NewMemory(4)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := workload.BuildRayTrace(workload.RayTraceConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tm, err := rt.NewMemory(rt.Par, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return []factsCase{
		mandelAt8(tb),
		{"radiosity/s=4", rd.Prog, Config{ThreadSlots: 4, InterThread: true, Deadlock: true, MemWords: rm.Size()}},
		{"raytrace-par/s=8", rt.Par, Config{ThreadSlots: 8, InterThread: true, MemWords: tm.Size()}},
	}
}

var benchDiags []Diagnostic

// BenchmarkAnalyzeProgram times one full lint pass, cross-thread and
// deadlock checks included, over a MinC kernel, the radiosity gather and
// the 8-slot ray trace.
func BenchmarkAnalyzeProgram(b *testing.B) {
	for _, c := range analyzeCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDiags = AnalyzeProgram(c.prog, c.cfg)
			}
		})
	}
}

// allocBytes returns the bytes AnalyzeProgram allocates per call,
// averaged over n calls after one warm-up call.
func allocBytes(c factsCase, n int) float64 {
	AnalyzeProgram(c.prog, c.cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		AnalyzeProgram(c.prog, c.cfg)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestAnalyzeProgramAllocs bounds what a warm lint pass over mandel.mc at
// 8 slots allocates. The cross-thread states span only the registers the
// program names (7 of 32 here, r0 included), so the whole pass fits in
// 128 KB.
func TestAnalyzeProgramAllocs(t *testing.T) {
	per := allocBytes(mandelAt8(t), 20)
	t.Logf("AnalyzeProgram(mandel.mc, 8 slots) allocated %.0f bytes per call", per)
	if per >= 128<<10 {
		t.Errorf("AnalyzeProgram(mandel.mc, 8 slots) allocated %.0f bytes per call, want under %d", per, 128<<10)
	}
}

// TestAnalyzeLargeSpaceAllocs lints a program with a 2M-word .space: the
// constant folding keeps one bit per data word, so the pass allocates a
// quarter of a megabyte for it instead of a map entry per word.
func TestAnalyzeLargeSpaceAllocs(t *testing.T) {
	p, err := asm.Assemble("\t.data\nbuf:\t.space 2000000\n\t.text\n\tli r1, 1\n\tsw r1, buf(r0)\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	c := factsCase{"space", p, Config{InterThread: true, Deadlock: true}}
	per := allocBytes(c, 3)
	t.Logf("AnalyzeProgram(.space 2000000) allocated %.0f bytes per call", per)
	if per >= 1<<20 {
		t.Errorf("AnalyzeProgram(.space 2000000) allocated %.0f bytes per call, want under %d", per, 1<<20)
	}
}
