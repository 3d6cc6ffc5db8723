package main

// hottime: forbids raw wall-clock calls (time.Now, time.Since, time.After,
// time.Tick, time.NewTicker, time.NewTimer) inside internal/core. The cycle
// loop executes hundreds of thousands of times per simulated run; a
// time.Now on that path costs more than the work it measures (40-51 ns per
// read on a 2-vCPU VM, against a few hundred ns per step) and distorts
// every host measurement of the loop: the per-phase shares a CPU profile
// gives and the ns per step perfbench reports. Host timing belongs outside
// the core: perfbench times whole runs, and pprof samples the loop without
// adding code to it.
//
// Scope: the whole internal/core package, by import path — every file, and
// every file added later, is covered without this analyzer naming them.
// That matters most for the event-driven core's helpers (event.go's
// pushEv/drainEv, the dirty-set maintenance, the head-stall cache, the
// quiescent horizons of skip.go): they run inside or instead of the phase
// bodies, so a clock read there is costlier than anywhere else — the
// event core made stepped cycles cheap enough that one stray time.Now per
// cycle would dominate them.
//
// A deliberate exception carries a justification comment on the same line
// or the line above:
//
//	t0 := time.Now() // hottime:allow cold-start banner, runs once
//
// Test files are exempt: tests and benchmarks time the loop from outside
// it.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotTimeFuncs are the time package entry points that read the wall clock
// or arm timers; anything cheaper (time.Duration arithmetic, constants) is
// fine on the hot path.
var hotTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// checkHotTime runs the hottime analysis over one package unit.
func checkHotTime(fset *token.FileSet, pkgPath string, files []*ast.File, info *types.Info) []string {
	const corePkg = modulePath + "/internal/core"
	if pkgPath != corePkg {
		return nil
	}
	var findings []string
	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		allowed := hottimeAllowLines(fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !hotTimeFuncs[sel.Sel.Name] {
				return true
			}
			// Resolve the receiver to the time package (not a local
			// variable that happens to be named "time").
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := info.Uses[id]
			if !ok {
				return true
			}
			pkgName, ok := obj.(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			pos := fset.Position(call.Pos())
			if allowed[pos.Line] {
				return true
			}
			findings = append(findings, fmt.Sprintf(
				"%s: hottime: time.%s on the simulator hot path; time whole runs from outside internal/core, or annotate `// hottime:allow <reason>`",
				pos, sel.Sel.Name))
			return true
		})
	}
	return findings
}

// hottimeAllowLines collects the lines a `// hottime:allow <reason>`
// comment exempts: the comment's own line and the line below it (so the
// annotation can trail the call or precede it). A bare "hottime:allow"
// without a reason does not count — the justification is the point.
func hottimeAllowLines(fset *token.FileSet, f *ast.File) map[int]bool {
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			rest, ok := strings.CutPrefix(text, "hottime:allow")
			if !ok || strings.TrimSpace(rest) == "" {
				continue
			}
			line := fset.Position(c.Pos()).Line
			allowed[line] = true
			allowed[line+1] = true
		}
	}
	return allowed
}
