package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// typecheckSrc parses and type-checks one synthesized file as package
// pkgPath, resolving this module's imports through the source importer.
func typecheckSrc(t *testing.T, pkgPath, src string) (*token.FileSet, []*ast.File, *types.Info) {
	t.Helper()
	return typecheckFile(t, pkgPath, "fixture.go", src)
}

// typecheckFile is typecheckSrc with the file named filename, for checks
// that exempt files by name.
func typecheckFile(t *testing.T, pkgPath, filename, src string) (*token.FileSet, []*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(error) {},
	}
	if _, err := conf.Check(pkgPath, fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, []*ast.File{f}, info
}

const badFixture = `package p

import (
	"hirata/internal/core"
	"hirata/internal/isa"
)

func f(r core.Result, p *core.Result, a, b isa.Instruction) bool {
	r.Cycles = 0          // statsmutate
	r.Slots[0].Issued++   // statsmutate, through an index expression
	p.Forks += 1          // statsmutate, through a pointer
	_ = a != b            // instcompare
	return a == b         // instcompare
}
`

const goodFixture = `package p

import (
	"hirata/internal/core"
	"hirata/internal/isa"
)

func f(r core.Result, a, b isa.Instruction) (uint64, bool) {
	c := r.Cycles          // reading stats is fine
	local := core.Result{} // composite literals are construction, not mutation
	_ = local
	return c, a.Same(b)
}
`

func TestBadFixtureFindings(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/tools/analyzers/fixture", badFixture)

	inst := checkInstCompare(fset, "hirata/tools/analyzers/fixture", files, info)
	if len(inst) != 2 {
		t.Errorf("instcompare findings = %d, want 2: %v", len(inst), inst)
	}
	for _, f := range inst {
		if !strings.Contains(f, "Instruction.Same") {
			t.Errorf("instcompare finding does not suggest Same: %s", f)
		}
	}

	stats := checkStatsMutate(fset, "hirata/tools/analyzers/fixture", files, info)
	if len(stats) != 3 {
		t.Errorf("statsmutate findings = %d, want 3: %v", len(stats), stats)
	}
	wantFields := []string{"Result.Cycles", "SlotStat.Issued", "Result.Forks"}
	for _, want := range wantFields {
		found := false
		for _, f := range stats {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no statsmutate finding for %s in %v", want, stats)
		}
	}
}

func TestGoodFixtureClean(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/tools/analyzers/fixture", goodFixture)
	if fs := checkInstCompare(fset, "hirata/tools/analyzers/fixture", files, info); len(fs) != 0 {
		t.Errorf("instcompare on clean fixture: %v", fs)
	}
	if fs := checkStatsMutate(fset, "hirata/tools/analyzers/fixture", files, info); len(fs) != 0 {
		t.Errorf("statsmutate on clean fixture: %v", fs)
	}
}

// TestExemptPackages checks that the owning packages may keep using raw
// equality and direct mutation.
func TestExemptPackages(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/internal/core", badFixture)
	if fs := checkStatsMutate(fset, "hirata/internal/core", files, info); len(fs) != 0 {
		t.Errorf("statsmutate inside internal/core: %v", fs)
	}
	fset, files, info = typecheckSrc(t, "hirata/internal/isa", badFixture)
	if fs := checkInstCompare(fset, "hirata/internal/isa", files, info); len(fs) != 0 {
		t.Errorf("instcompare inside internal/isa: %v", fs)
	}
}

const shareCopyFixture = `package p

import "sync"

type Totals struct {
	Issues   uint64
	UnitBusy []uint64
	Stalls   [][]uint64
}

type Collector struct {
	mu      sync.Mutex
	totals  Totals
	pending Totals
	sink    Totals
}

// bad: returns a shallow copy while holding the lock.
func (c *Collector) Snapshot() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// bad: reassigns one slice field but leaves Stalls aliased.
func (c *Collector) snapshotLocked() Totals {
	t := c.totals
	t.UnitBusy = append([]uint64(nil), c.totals.UnitBusy...)
	return t
}

// bad: copied straight into another shared field, nothing reassignable.
func (c *Collector) mirrorLocked() {
	c.sink = c.totals
}

// good: deep-copies every slice field (the totalsLocked pattern).
func (c *Collector) deepLocked() Totals {
	t := c.totals
	t.UnitBusy = append([]uint64(nil), c.totals.UnitBusy...)
	t.Stalls = make([][]uint64, len(c.totals.Stalls))
	return t
}

// good: ownership transfer — the shared slot itself is replaced.
func (c *Collector) rotateLocked() Totals {
	t := c.pending
	c.pending = Totals{UnitBusy: make([]uint64, 8)}
	return t
}

// good: no lock boundary in sight.
type Plain struct{ v Totals }

func free(p *Plain) Totals { return p.v }
`

func TestShareCopyFindings(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/tools/analyzers/fixture", shareCopyFixture)
	fs := checkShareCopy(fset, "hirata/tools/analyzers/fixture", files, info)
	if len(fs) != 3 {
		t.Fatalf("sharecopy findings = %d, want 3:\n%s", len(fs), strings.Join(fs, "\n"))
	}
	joined := strings.Join(fs, "\n")
	// The full-copy sites report both slice fields; the partial deep copy
	// reports only the one still aliased.
	if !strings.Contains(joined, "Stalls, UnitBusy") {
		t.Errorf("no finding listing both slice fields:\n%s", joined)
	}
	partial := false
	for _, f := range fs {
		if strings.Contains(f, "Stalls") && !strings.Contains(f, "UnitBusy") {
			partial = true
		}
	}
	if !partial {
		t.Errorf("no finding for the partially deep-copied snapshotLocked:\n%s", joined)
	}
}

const diagFixture = `package lint

type Code string

const (
	CodeOne   Code = "L001"
	CodeTwo   Code = "L002"
	CodeThree Code = "L003"
)
`

const docFixture = "# catalogue\n" +
	"### L001 `one` — first\n" +
	"### L002 `two` — second\n" +
	"### L099 `ghost` — removed long ago\n" +
	"#### L003 not a section heading (wrong level)\n"

func TestDiagDocCrossReference(t *testing.T) {
	findings, err := diagdocCheck("diag.go", []byte(diagFixture), "LINT.md", docFixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want 2: %v", len(findings), findings)
	}
	joined := strings.Join(findings, "\n")
	if !strings.Contains(joined, "code L003 has no") {
		t.Errorf("missing undocumented-code finding for L003:\n%s", joined)
	}
	if !strings.Contains(joined, "section for L099 has no") {
		t.Errorf("missing stale-section finding for L099:\n%s", joined)
	}
}

func TestDiagDocClean(t *testing.T) {
	doc := "### L001 a\n### L002 b\n### L003 c\n"
	findings, err := diagdocCheck("diag.go", []byte(diagFixture), "LINT.md", doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("clean fixture produced findings: %v", findings)
	}
}

func TestDiagDocLiveCatalogue(t *testing.T) {
	// The real pair must stay in sync; run the check over the repository's
	// own files.
	diagSrc, err := os.ReadFile("../../internal/lint/diag.go")
	if err != nil {
		t.Fatal(err)
	}
	docSrc, err := os.ReadFile("../../docs/LINT.md")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := diagdocCheck("internal/lint/diag.go", diagSrc, "docs/LINT.md", string(docSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("live catalogue out of sync:\n%s", strings.Join(findings, "\n"))
	}
}
