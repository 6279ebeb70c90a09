package main

// flow.go is the shared must-reach engine for the resource-lifecycle
// analyzers (cursorleak, refbalance): given a local variable bound to a
// resource at an acquisition statement, walk every control-flow path to
// the function exit and require each one to settle the resource — by
// releasing it, deferring a release, or letting it escape to an owner
// (returned, stored, captured, or handed to a function whose summary
// says it releases or keeps it).
//
// Escapes are deliberately one-way: once the value leaves the local
// scope the caller/callee owns it and the path is satisfied. That keeps
// the analyzers at near-zero false positives while still catching the
// classic early-return-between-acquire-and-defer bug. The per-package
// summaries (facts.go) sharpen the call-argument case: handing the
// resource to an in-package function that neither releases nor keeps it
// does NOT settle the path.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flowUnit is one analyzable body: a declared function or a function
// literal (engines acquire resources inside lazy-cursor closures, so
// literals get their own CFG and query).
type flowUnit struct {
	body *ast.BlockStmt
	cfg  *funcCFG
}

// flowUnits collects the top-level unit of decl plus one unit per
// function literal, at any nesting depth.
func flowUnits(decl *ast.FuncDecl) []*flowUnit {
	units := []*flowUnit{{body: decl.Body, cfg: buildCFG(decl.Body)}}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			units = append(units, &flowUnit{body: lit.Body, cfg: buildCFG(lit.Body)})
		}
		return true
	})
	return units
}

// eachStmt visits the statements that belong to this unit itself,
// skipping statements inside nested function literals (their own
// units).
func (u *flowUnit) eachStmt(fn func(ast.Stmt)) {
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			return lit.Body == u.body // descend only into our own body
		}
		if s, ok := n.(ast.Stmt); ok {
			if _, tracked := u.cfg.nodes[s]; tracked {
				fn(s)
			}
		}
		return true
	})
}

// flowQuery is one tracked-resource must-reach question.
type flowQuery struct {
	p  *Pass
	pf *packageFacts
	// obj is the tracked local: the acquired closer (value-tracked) or
	// the receiver the acquire method pinned (receiver-tracked).
	obj types.Object
	// errObj, when non-nil, is the error assigned alongside the
	// acquisition; branches guarded by `errObj != nil` are pruned (the
	// resource is invalid there by Go convention).
	errObj types.Object
	// isRelease reports whether a selector call settles the resource:
	// asReceiver when obj is the method receiver (x.Close(),
	// ds.Unpersist()), otherwise obj is an argument (bp.unpin(fr, …)).
	isRelease func(sel *ast.SelectorExpr, asReceiver bool) bool
	// calleeSettles reports whether passing obj as callee's paramIdx-th
	// parameter settles the resource per the callee's summary.
	calleeSettles func(gf *funcFacts, paramIdx int) bool
}

// run walks every path from the acquisition statement and returns the
// terminal node of the first unsettled path, or nil when every path
// settles or escapes the resource.
func (q *flowQuery) run(u *flowUnit, acquire ast.Stmt) *cfgNode {
	start := u.cfg.nodes[acquire]
	if start == nil {
		return nil
	}
	return u.cfg.firstUnsatisfiedExit(start, func(n *cfgNode) pathVerdict {
		return q.classify(n)
	}, q.pruneNilGuard)
}

// classify scans the expressions a node evaluates for uses of the
// tracked object.
func (q *flowQuery) classify(n *cfgNode) pathVerdict {
	verdict := pathContinue
	for _, root := range shallowExprs(n.stmt) {
		if q.scan(root) == pathSatisfied {
			verdict = pathSatisfied
		}
	}
	return verdict
}

// scan walks one expression tree with a parent stack, classifying each
// occurrence of the tracked object.
func (q *flowQuery) scan(root ast.Node) pathVerdict {
	verdict := pathContinue
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if lit, ok := n.(*ast.FuncLit); ok {
			// A literal capturing the object escapes it (the closure may
			// release it later — defers and lazy onClose hooks do).
			if q.captures(lit) {
				verdict = pathSatisfied
			}
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || q.p.Info.Uses[id] != q.obj {
			return true
		}
		if q.useSettles(stack, id) {
			verdict = pathSatisfied
		}
		return true
	})
	return verdict
}

// captures reports whether the literal's body mentions the tracked
// object.
func (q *flowQuery) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && q.p.Info.Uses[id] == q.obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// useSettles classifies one occurrence of the tracked object given its
// ancestor stack (innermost last, the ident itself on top).
func (q *flowQuery) useSettles(stack []ast.Node, id *ast.Ident) bool {
	parent := ancestor(stack, 1)

	// x.Method(...): release settles; other methods are neutral reads.
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		if call, ok := ancestor(stack, 2).(*ast.CallExpr); ok && call.Fun == sel {
			return q.isRelease != nil && q.isRelease(sel, true)
		}
		return false // bare field/method read
	}

	// Comparisons (x == nil) are neutral reads.
	if be, ok := parent.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
		return false
	}

	// x as a call argument.
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun != ast.Node(id) {
		return q.argSettles(call, id)
	}

	// A type assertion result, return value, assignment source, struct
	// or slice literal element, channel send, address-of, map/index
	// store: the value escapes to another owner.
	switch parent.(type) {
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr,
		*ast.SendStmt, *ast.UnaryExpr, *ast.TypeAssertExpr, *ast.IndexExpr:
		return true
	case *ast.AssignStmt:
		as := parent.(*ast.AssignStmt)
		for _, rhs := range as.Rhs {
			if rhs == ast.Expr(id) {
				return true // aliased or stored
			}
		}
		return false // reassignment target: neutral here
	}
	return false
}

// argSettles classifies passing the object to a call: a release by
// name, an in-package callee whose summary settles the parameter, or a
// conservative escape for callees we cannot see into.
func (q *flowQuery) argSettles(call *ast.CallExpr, id *ast.Ident) bool {
	argIdx := -1
	for i, a := range call.Args {
		if a == ast.Expr(id) {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		return true // inside a nested expression we did not model: escape
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && q.isRelease != nil && q.isRelease(sel, false) {
		return true
	}
	if callee := staticCallee(q.p.Info, call); callee != nil && callee.Pkg() == q.p.Pkg {
		if gf := q.pf.funcs[callee]; gf != nil {
			if q.calleeSettles != nil && argIdx < len(gf.closesParams) && q.calleeSettles(gf, argIdx) {
				return true
			}
			if argIdx < len(gf.escapesParams) && gf.escapesParams[argIdx] {
				return true // callee keeps it: ownership transferred
			}
			return false // callee only reads it: still ours to settle
		}
	}
	// Cross-package or dynamic call: assume ownership may transfer.
	return true
}

// pruneNilGuard suppresses the branches of a nil comparison on which no
// resource is live. For the acquisition's error sibling that is the
// error branch of `if err != nil` (and the else of `if err == nil`): by
// convention the resource is not live when its constructor errored. For
// the tracked variable itself it is the other way round — the else of
// `if x != nil` and the body of `if x == nil` hold no resource — which
// is what lets a pin carried across loop iterations be released under a
// guard (`if fr != nil { bp.unpin(fr) }`) on page change and on exit.
func (q *flowQuery) pruneNilGuard(n *cfgNode, succIdx int) bool {
	if !n.isIf {
		return false
	}
	ifStmt, ok := n.stmt.(*ast.IfStmt)
	if !ok {
		return false
	}
	be, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var side ast.Expr
	switch {
	case isNilIdent(be.Y):
		side = be.X
	case isNilIdent(be.X):
		side = be.Y
	default:
		return false
	}
	id, ok := side.(*ast.Ident)
	if !ok || be.Op != token.NEQ && be.Op != token.EQL {
		return false
	}
	// nilBranch is the successor taken when the compared variable is nil.
	nilBranch := 1
	if be.Op == token.EQL {
		nilBranch = 0
	}
	switch obj := q.p.Info.Uses[id]; {
	case obj == nil:
		return false
	case obj == q.errObj:
		return succIdx != nilBranch // no resource where err is set
	case obj == q.obj:
		return succIdx == nilBranch // no resource where the variable is nil
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// ancestor returns the n-th ancestor from the top of the stack (1 =
// parent of the current node), or nil.
func ancestor(stack []ast.Node, n int) ast.Node {
	if len(stack) <= n {
		return nil
	}
	return stack[len(stack)-1-n]
}

// acquisition describes a statement that binds a tracked resource.
type acquisition struct {
	stmt ast.Stmt
	obj  types.Object // the tracked local
	err  types.Object // error assigned alongside, or nil
	call *ast.CallExpr
}

// assignAcquisitions matches `x := f(...)` / `x, err := f(...)` forms
// where wantObj selects which result binding to track. It returns nil
// when the statement is not an assignment from a single call.
func assignAcquisition(p *Pass, s ast.Stmt, wantType func(types.Type) bool) *acquisition {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	// Conversions look like calls but transfer nothing.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	acq := &acquisition{stmt: s, call: call}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id] // plain `=` assignment to an existing var
		}
		if obj == nil {
			continue
		}
		if isErrorType(obj.Type()) {
			acq.err = obj
			continue
		}
		if acq.obj == nil && wantType(obj.Type()) {
			acq.obj = obj
		}
	}
	if acq.obj == nil {
		return nil
	}
	return acq
}
