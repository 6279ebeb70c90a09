package main

import (
	"go/ast"
	"go/types"
)

// goroutinecaptureAnalyzer enforces the fan-out rule the language does
// not: wg.Add must run in the spawning goroutine before the go
// statement, not inside the spawned closure where it races wg.Wait.
// (Capturing loop variables needs no check: since Go 1.22, which go.mod
// declares, every iteration gets its own variable.)
var goroutinecaptureAnalyzer = &Analyzer{
	Name: "goroutinecapture",
	Doc:  "flags wg.Add calls inside spawned goroutines",
	Run:  runGoroutinecapture,
}

func runGoroutinecapture(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkWgAddInside(p, g)
			}
			return true
		})
	}
}

// checkWgAddInside flags wg.Add calls in the body of a spawned closure:
// by the time the goroutine runs, wg.Wait may already have returned.
func checkWgAddInside(p *Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		// Do not descend into nested go statements; they get their own
		// visit from the outer walk.
		if inner, ok := n.(*ast.GoStmt); ok && inner != g {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if !isWaitGroup(p.Info.TypeOf(sel.X)) {
			return true
		}
		p.Reportf(call.Pos(), "wg.Add inside spawned goroutine races wg.Wait; call Add before the go statement")
		return true
	})
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
