package lint

import (
	"bytes"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/minc"
	"hirata/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// factsCase is one program of the facts corpus at one lint configuration.
type factsCase struct {
	name string
	prog *asm.Program
	cfg  Config
}

// callLoopSrc calls a subroutine from inside a counted loop, so the
// analysis joins a call-return edge into the loop.
const callLoopSrc = `	.data
out:	.space 4
	.text
	li   r4, 0
loop:	jal  r31, put
	addi r4, r4, 1
	slti r5, r4, 4
	bnez r5, loop
	halt
put:	li   r6, 7
	la   r8, out
	sw   r6, 0(r8)
	jr   r31
`

// sparseForkSrc is a doall loop whose pointer and counter sit in r29
// and r3, so the registers it names are not a prefix of the file.
const sparseForkSrc = `	.data
arr:	.space 32
	.text
	ffork
	tid  r3
	la   r29, arr
	add  r29, r29, r3
loop:	sw   r3, 0(r29)
	addi r3, r3, 4
	addi r29, r29, 4
	slti r7, r3, 32
	bnez r7, loop
	halt
`

// factsCorpus returns the programs whose cross-thread facts are pinned:
// the examples at the benchmark's machine shapes, the hirata-lint
// fixtures, every workload generator and two register-layout fixtures.
func factsCorpus(t *testing.T) []factsCase {
	t.Helper()
	var cases []factsCase
	examples := []struct {
		file  string
		slots int
	}{
		{"fib.s", 1}, {"dotprod.s", 4}, {"pipeline.s", 3}, {"sort.s", 4},
		{"mandel.mc", 1}, {"mandel.mc", 4}, {"mandel.mc", 8}, {"matmul.mc", 4},
	}
	for _, ex := range examples {
		p := loadProgram(t, filepath.Join("..", "..", "examples", "programs", ex.file))
		m, err := p.NewMemory(4096)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, factsCase{
			name: fmt.Sprintf("examples/%s/s=%d", ex.file, ex.slots),
			prog: p,
			cfg:  Config{ThreadSlots: ex.slots, InterThread: true, Deadlock: true, MemWords: m.Size()},
		})
	}
	for _, f := range []string{"deadlock.s", "overflow.s"} {
		cases = append(cases, factsCase{
			name: "hirata-lint/" + f,
			prog: loadProgram(t, filepath.Join("..", "..", "cmd", "hirata-lint", "testdata", f)),
			cfg:  Config{Entries: []int{0, 4}, ThreadSlots: 4, InterThread: true, Deadlock: true},
		})
	}

	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rt, err := workload.BuildRayTrace(workload.RayTraceConfig{})
	check(err)
	lk, err := workload.BuildLivermore(workload.LivermoreConfig{})
	check(err)
	ll, err := workload.BuildLinkedList(workload.LinkedListConfig{})
	check(err)
	rc, err := workload.BuildRecurrence(workload.RecurrenceConfig{})
	check(err)
	rd, err := workload.BuildRadiosity(workload.RadiosityConfig{})
	check(err)
	def := Config{InterThread: true, Deadlock: true}
	for _, w := range []struct {
		name string
		prog *asm.Program
	}{
		{"raytrace-seq", rt.Seq}, {"raytrace-par", rt.Par},
		{"livermore-seq", lk.Seq}, {"livermore-par", lk.Par},
		{"linkedlist-seq", ll.Seq}, {"linkedlist-par", ll.Par},
		{"recurrence-seq", rc.Seq}, {"recurrence-par", rc.Par},
		{"radiosity", rd.Prog},
	} {
		cases = append(cases, factsCase{name: "workload/" + w.name, prog: w.prog, cfg: def})
	}
	m, err := rt.NewMemory(rt.Par, 8)
	check(err)
	cases = append(cases, factsCase{
		name: "workload/raytrace-par/s=8",
		prog: rt.Par,
		cfg:  Config{ThreadSlots: 8, InterThread: true, MemWords: m.Size()},
	})

	for _, f := range []struct{ name, src string }{
		{"call-loop", callLoopSrc}, {"sparse-fork", sparseForkSrc},
	} {
		p, err := asm.Assemble(f.src)
		check(err)
		cases = append(cases, factsCase{name: "fixture/" + f.name, prog: p, cfg: def})
	}
	return cases
}

func loadProgram(t testing.TB, path string) *asm.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p *asm.Program
	if filepath.Ext(path) == ".mc" {
		p, err = minc.Compile(string(src))
	} else {
		p, err = asm.Assemble(string(src))
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return p
}

func fmtVal(v aval) string {
	if v.bot {
		return "bot"
	}
	return fmt.Sprintf("%d*tid+[%d,%d] m=%d res=%d w=%d", v.tc, v.lo, v.hi, v.m, v.res, v.resW)
}

// writeFacts prints what the cross-thread analysis concluded about one
// program: its findings and the facts they were derived from.
func writeFacts(b *bytes.Buffer, c factsCase) {
	a, ds := analyzeProgram(c.prog, c.cfg)
	fmt.Fprintf(b, "== %s\n", c.name)
	for _, d := range ds {
		fmt.Fprintf(b, "finding %s\n", d)
	}
	ia := a.inter
	if ia == nil {
		fmt.Fprintf(b, "no cross-thread analysis\n")
		return
	}
	fmt.Fprintf(b, "gaveUp=%v qUncertain=%v folded=%d\n", ia.gaveUp, ia.qUncertain, foldedWords(ia))
	for _, ac := range ia.accesses {
		kind := "load"
		if ac.store {
			kind = "store"
		}
		fmt.Fprintf(b, "access pc=%d ctx=%d %s addr=%s tid=[%d,%d] solo=%v postKill=%v\n",
			ac.pc, ac.ctx, kind, fmtVal(ac.addr), ac.tid.lo, ac.tid.hi, ac.solo, ac.postKill)
	}
	for _, s := range ia.storeAddrs {
		fmt.Fprintf(b, "storeset %s\n", fmtVal(s))
	}
	pcs := make([]int, 0, len(ia.brMask))
	for pc := range ia.brMask {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		fmt.Fprintf(b, "branch pc=%d mask=%d\n", pc, ia.brMask[pc])
	}
}

// foldedWords counts the data words the final run read as constants.
func foldedWords(ia *interAnalysis) int {
	n := 0
	for _, w := range ia.folded {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestInterThreadFactsGolden pins the cross-thread analysis's conclusions
// over the facts corpus: findings, every recorded access with its abstract
// address and concurrency context, the store-address sets, each branch's
// outcome mask, the number of folded data words, and whether the analysis
// gave up or lost track of the queue mapping. A change to the abstract
// state's representation must leave this file byte-identical.
func TestInterThreadFactsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, c := range factsCorpus(t) {
		writeFacts(&b, c)
	}
	golden := filepath.Join("testdata", "interthread_facts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/lint -run TestInterThreadFactsGolden -update` to regenerate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("facts differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("facts differ from %s: %d lines, want %d", golden, len(got), len(wantLines))
	}
}
