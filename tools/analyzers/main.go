// Command analyzers runs this repository's custom static checks over the
// module's Go source. It deliberately uses only the standard library
// (go/parser + go/types with the source importer) so it works in this
// repository's hermetic build environment, where golang.org/x/tools — and
// with it `go vet -vettool` — is unavailable.
//
// Checks:
//
//   - statsmutate: simulation statistics (fields of core.Result, core.UnitStat,
//     core.SlotStat) may only be mutated inside internal/core. Everyone else
//     treats results as read-only values; a stray `res.Cycles = 0` in an
//     experiment silently corrupts a paper table.
//
//   - instcompare: isa.Instruction values must not be compared with == or !=
//     outside package isa. The struct carries format-dependent operand
//     fields, so raw equality distinguishes encodings that are semantically
//     identical; use Instruction.Same instead.
//
//   - sharecopy: a shallow copy of a slice-bearing struct taken from
//     pointer-reached shared state inside a lock boundary must deep-copy
//     (reassign) every slice field before the value escapes — otherwise the
//     copy aliases the guarded backing arrays and readers race with the
//     writers once the lock is released.
//
//   - configfield: core.Config must not be constructed or copied
//     field-by-field (a composite literal copying several fields from one
//     source Config, or a run of consecutive single-field assignments).
//     Config grows regularly; enumerating its fields compiles clean when a
//     field is added and silently drops it. internal/model's design-space
//     Grid is the one exempt explicit enumeration.
//
//   - hottime: internal/core must not call time.Now / time.Since (or any
//     other wall-clock or timer entry point) directly. The cycle loop is
//     the simulator's hot path, and a clock read there would distort the
//     CPU profiles and perfbench timings that measure it; host timing
//     wraps whole runs from outside the core. `// hottime:allow <reason>`
//     exempts a deliberate call.
//
//   - diagdoc: every lint diagnostic code declared in internal/lint/diag.go
//     must have a `### Lxxx` section in docs/LINT.md, and every such
//     section must correspond to a declared code. The catalogue promises
//     code stability; an undocumented code (or stale docs for a removed
//     one) breaks that contract silently.
//
//   - configcanon: every core.Config field must be mentioned in
//     internal/core/canonical.go — encoded in canonicalFields or excluded
//     with a reason in canonicalExcluded. The canonical encoding is the run
//     ledger's cache key; a field added without a decision there would
//     silently alias two different machines under one run key.
//
//   - runpath: outside internal/core, only the facade file holding the
//     shared run tail (hirata.go) may call core.New or core.NewTraceDriven.
//     Every other simulation goes through hirata.Run or hirata.ReplayTraces,
//     so the StrictVerify gate, ledger recording and Collector finalization
//     apply to all of them alike. Inside the root package, only hirata.go
//     and the experiment grid (grid.go) may call Run, RunMT, RunRISC or
//     ReplayTraces. _test.go files and the perfbench module, which drives
//     the core directly by design, are exempt.
//
// Usage (from the module root):
//
//	go run ./tools/analyzers ./...
//
// Exit status: 0 clean, 1 findings, 2 load/typecheck failure.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const modulePath = "hirata"

func main() {
	// Arguments other than the conventional "./..." are taken as directory
	// roots to restrict the walk.
	roots := []string{"."}
	if args := os.Args[1:]; len(args) > 0 && !(len(args) == 1 && args[0] == "./...") {
		roots = args
	}

	dirs, err := goPackageDirs(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyzers:", err)
		os.Exit(2)
	}

	fset := token.NewFileSet()
	var findings []string
	failed := false
	for _, dir := range dirs {
		for _, unit := range parseUnits(fset, dir, &failed) {
			findings = append(findings, checkUnit(fset, dir, unit)...)
		}
	}
	findings = append(findings, checkDiagDoc("internal/lint/diag.go", "docs/LINT.md", &failed)...)
	findings = append(findings, checkConfigCanon("internal/core/config.go", "internal/core/canonical.go", &failed)...)
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	switch {
	case failed:
		os.Exit(2)
	case len(findings) > 0:
		os.Exit(1)
	}
}

// unit is one type-checkable set of files: a package, or the external
// _test package that accompanies it.
type unit struct {
	name  string
	files []*ast.File
}

// goPackageDirs walks the roots and returns every directory containing Go
// files, skipping testdata and hidden directories.
func goPackageDirs(roots []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				base := filepath.Base(path)
				if base == "testdata" || (strings.HasPrefix(base, ".") && path != ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				dir := filepath.Dir(path)
				if !seen[dir] {
					seen[dir] = true
					dirs = append(dirs, dir)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseUnits parses a directory's Go files and groups them into type-check
// units (the package plus, separately, its external test package).
func parseUnits(fset *token.FileSet, dir string, failed *bool) []unit {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyzers:", err)
		*failed = true
		return nil
	}
	byName := map[string][]*ast.File{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyzers:", err)
			*failed = true
			continue
		}
		name := f.Name.Name
		byName[name] = append(byName[name], f)
	}
	var units []unit
	for name, files := range byName {
		units = append(units, unit{name: name, files: files})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].name < units[j].name })
	return units
}

// checkUnit type-checks one unit and runs the per-package analyses over it.
func checkUnit(fset *token.FileSet, dir string, u unit) []string {
	pkgPath := modulePath
	if dir != "." {
		pkgPath = modulePath + "/" + filepath.ToSlash(dir)
	}
	if strings.HasSuffix(u.name, "_test") {
		pkgPath += "_test"
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		// Unresolved identifiers in one file must not hide findings in
		// another, so type errors are tolerated.
		Error: func(error) {},
	}
	_, _ = conf.Check(pkgPath, fset, u.files, info)

	var findings []string
	findings = append(findings, checkInstCompare(fset, pkgPath, u.files, info)...)
	findings = append(findings, checkStatsMutate(fset, pkgPath, u.files, info)...)
	findings = append(findings, checkShareCopy(fset, pkgPath, u.files, info)...)
	findings = append(findings, checkConfigField(fset, pkgPath, u.files, info)...)
	findings = append(findings, checkHotTime(fset, pkgPath, u.files, info)...)
	findings = append(findings, checkRunPath(fset, pkgPath, u.files, info)...)
	return findings
}

// isNamedType reports whether t (or the type it points to) is the named
// type pkg.name.
func isNamedType(t types.Type, pkg, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// checkInstCompare flags == / != between isa.Instruction values outside
// package isa.
func checkInstCompare(fset *token.FileSet, pkgPath string, files []*ast.File, info *types.Info) []string {
	const isaPkg = modulePath + "/internal/isa"
	if pkgPath == isaPkg {
		return nil
	}
	var findings []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			for _, e := range []ast.Expr{be.X, be.Y} {
				tv, ok := info.Types[e]
				if !ok {
					continue
				}
				if isNamedType(tv.Type, isaPkg, "Instruction") {
					findings = append(findings, fmt.Sprintf(
						"%s: instcompare: %s on isa.Instruction compares format-dependent operand fields; use Instruction.Same",
						fset.Position(be.OpPos), be.Op))
					break
				}
			}
			return true
		})
	}
	return findings
}

// statsTypes are the core statistics structs whose fields only
// internal/core may assign to.
var statsTypes = map[string]bool{"Result": true, "UnitStat": true, "SlotStat": true}

// checkStatsMutate flags writes (assignment or ++/--) to fields of the
// core statistics types outside internal/core.
func checkStatsMutate(fset *token.FileSet, pkgPath string, files []*ast.File, info *types.Info) []string {
	const corePkg = modulePath + "/internal/core"
	if pkgPath == corePkg {
		return nil
	}
	var findings []string
	flag := func(e ast.Expr) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return
		}
		recv := s.Recv()
		for name := range statsTypes {
			if isNamedType(recv, corePkg, name) {
				findings = append(findings, fmt.Sprintf(
					"%s: statsmutate: write to core.%s.%s outside internal/core; simulation statistics are read-only results",
					fset.Position(sel.Sel.Pos()), name, sel.Sel.Name))
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if st.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range st.Lhs {
					flag(lhs)
				}
			case *ast.IncDecStmt:
				flag(st.X)
			case *ast.UnaryExpr:
				// Taking the address of a stats field is mutation intent
				// the assignment scan cannot see through; it is allowed
				// (reading via pointer is fine), so nothing to do here.
			}
			return true
		})
	}
	return findings
}

// checkDiagDoc runs the diagdoc cross-reference when both the diagnostic
// source and the catalogue exist under the working directory (they do when
// the tool runs from the module root; restricted-root runs skip it).
func checkDiagDoc(diagPath, docPath string, failed *bool) []string {
	diagSrc, errDiag := os.ReadFile(diagPath)
	docSrc, errDoc := os.ReadFile(docPath)
	if os.IsNotExist(errDiag) && os.IsNotExist(errDoc) {
		return nil
	}
	if errDiag != nil || errDoc != nil {
		// One of the pair exists but the other is unreadable or missing:
		// that is itself a finding, not a skip.
		*failed = true
		fmt.Fprintf(os.Stderr, "analyzers: diagdoc: %v / %v\n", errDiag, errDoc)
		return nil
	}
	fs, err := diagdocCheck(diagPath, diagSrc, docPath, string(docSrc))
	if err != nil {
		*failed = true
		fmt.Fprintln(os.Stderr, "analyzers: diagdoc:", err)
	}
	return fs
}

// diagdocCheck cross-references the Code constants declared in the
// diagnostic source against the `### Lxxx` sections of the catalogue, in
// both directions. It is pure so tests can drive it with fixtures.
func diagdocCheck(diagPath string, diagSrc []byte, docPath, docText string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, diagPath, diagSrc, 0)
	if err != nil {
		return nil, err
	}
	declared := map[string]token.Pos{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Code" {
			return true
		}
		for _, v := range vs.Values {
			bl, ok := v.(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				continue
			}
			s := strings.Trim(bl.Value, "`\"")
			if isDiagCode(s) {
				declared[s] = bl.Pos()
			}
		}
		return true
	})

	documented := map[string]int{}
	for i, line := range strings.Split(docText, "\n") {
		rest, ok := strings.CutPrefix(line, "### ")
		if !ok {
			continue
		}
		if fields := strings.Fields(rest); len(fields) > 0 && isDiagCode(fields[0]) {
			documented[fields[0]] = i + 1
		}
	}

	var findings []string
	for code, pos := range declared {
		if _, ok := documented[code]; !ok {
			findings = append(findings, fmt.Sprintf("%s: diagdoc: code %s has no `### %s` section in %s",
				fset.Position(pos), code, code, docPath))
		}
	}
	for code, line := range documented {
		if _, ok := declared[code]; !ok {
			findings = append(findings, fmt.Sprintf("%s:%d: diagdoc: section for %s has no Code constant in %s",
				docPath, line, code, diagPath))
		}
	}
	return findings, nil
}

// isDiagCode reports whether s looks like a diagnostic code: "L" followed
// by exactly three digits.
func isDiagCode(s string) bool {
	if len(s) != 4 || s[0] != 'L' {
		return false
	}
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
