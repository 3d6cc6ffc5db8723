package main

// runpath: outside internal/core, only the facade's run tail may build a
// processor. core.New and core.NewTraceDriven return a bare machine; a
// caller that runs one itself skips what every facade run applies (the
// StrictVerify gate, the attached run ledger, Collector finalization), so
// its results quietly stop matching the other run paths. hirata.Run and
// hirata.ReplayTraces are the two front ends of that tail.
//
// Inside the root package, one step further: only the facade (runTailFile)
// and the experiment grid (gridFile) may call Run, RunMT, RunRISC or
// ReplayTraces. Every experiment runs its cells through runGrid, so a
// check or a record added there covers every cell of every table.
//
// Exempt:
//   - internal/core itself;
//   - runTailFile, the root-package file that holds the run tail;
//   - _test.go files, which exercise the core directly;
//   - perfbench/, the benchmark module, which times the core's layers
//     directly by design.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// runTailFile is the root-package file holding the shared run tail, and
// gridFile the one holding the experiment grid.
const (
	runTailFile = "hirata.go"
	gridFile    = "grid.go"
)

// runPathCtors are the internal/core constructors reserved to the tail.
var runPathCtors = map[string]bool{"New": true, "NewTraceDriven": true}

// facadeRuns are the root package's simulation entry points, which only
// runTailFile and gridFile may call from inside the package.
var facadeRuns = map[string]bool{"Run": true, "RunMT": true, "RunRISC": true, "ReplayTraces": true}

// checkRunPath runs the runpath analysis over one package unit.
func checkRunPath(fset *token.FileSet, pkgPath string, files []*ast.File, info *types.Info) []string {
	const corePkg = modulePath + "/internal/core"
	inside := func(root string) bool {
		p := strings.TrimSuffix(pkgPath, "_test")
		return p == root || strings.HasPrefix(p, root+"/")
	}
	if inside(corePkg) || inside(modulePath+"/perfbench") {
		return nil
	}
	var findings []string
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		base := filepath.Base(name)
		root := pkgPath == modulePath
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if !runPathCtors[n.Sel.Name] || (root && base == runTailFile) {
					return true
				}
				fn, ok := info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != corePkg {
					return true
				}
				findings = append(findings, fmt.Sprintf(
					"%s: runpath: core.%s outside the run tail (%s); run through hirata.Run or hirata.ReplayTraces",
					fset.Position(n.Pos()), n.Sel.Name, runTailFile))
			case *ast.Ident:
				if !root || !facadeRuns[n.Name] || base == runTailFile || base == gridFile {
					return true
				}
				fn, ok := info.Uses[n].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != modulePath || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				findings = append(findings, fmt.Sprintf(
					"%s: runpath: %s outside %s and %s; run experiment cells through runGrid",
					fset.Position(n.Pos()), n.Name, runTailFile, gridFile))
			}
			return true
		})
	}
	return findings
}
