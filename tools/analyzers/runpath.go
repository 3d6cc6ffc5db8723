package main

// runpath: outside internal/core, only the facade's run tail may build a
// processor. core.New and core.NewTraceDriven return a bare machine; a
// caller that runs one itself skips what every facade run applies (the
// StrictVerify gate, the attached run ledger, Collector finalization), so
// its results quietly stop matching the other run paths. hirata.Run and
// hirata.ReplayTraces are the two front ends of that tail.
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

// runTailFile is the root-package file holding the shared run tail.
const runTailFile = "hirata.go"

// runPathCtors are the internal/core constructors reserved to the tail.
var runPathCtors = map[string]bool{"New": true, "NewTraceDriven": true}

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
		if strings.HasSuffix(name, "_test.go") || (pkgPath == modulePath && filepath.Base(name) == runTailFile) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !runPathCtors[sel.Sel.Name] {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != corePkg {
				return true
			}
			findings = append(findings, fmt.Sprintf(
				"%s: runpath: core.%s outside the run tail (%s); run through hirata.Run or hirata.ReplayTraces",
				fset.Position(sel.Pos()), sel.Sel.Name, runTailFile))
			return true
		})
	}
	return findings
}
