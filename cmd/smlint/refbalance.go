package main

// refbalanceAnalyzer enforces the repo's paired acquire/release
// disciplines on every control-flow path: Dataset.Flat → ReleaseFlat
// and the rowstore buffer pool's fetch/allocate → unpin. The pairs live
// in a small table, so a new resource is one line. Two shapes exist:
//
//   - receiver-tracked: the acquire pins state on its receiver
//     (ds.Flat()); the same receiver must reach the release
//     (ds.ReleaseFlat()) or escape to an owner. Acquires on parameters
//     and captured variables are exempt — the caller owns those.
//   - value-tracked: the acquire returns the resource
//     (fr, err := bp.fetch(page)); the returned value must reach the
//     release (bp.unpin(fr, …)) or escape.
//
// Escapes and in-package summaries follow the same rules as
// cursorleak (flow.go): handing the resource to a function that the
// package summary says releases or keeps it settles the path; an
// in-package function that only reads it does not.
//
// The analyzer also enforces the revive protocol: when a type's Close
// latches a bool field before releasing shared state
// (`if !c.closed { c.closed = true; c.idx.release() }`), that latch is
// what makes the release exactly-once. A Reset on the same type that
// clears the latch (`c.closed = false`) revives the cursor, and the
// next Close releases the shared state a second time — a refcount
// underflow. Inner Close calls are exempt from the release set (the
// Cursor contract makes Close idempotent), so pure delegating wrappers
// may legitimately revive.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var refbalanceAnalyzer = &Analyzer{
	Name: "refbalance",
	Doc:  "flags acquire calls (Flat, fetch, allocate) whose paired release does not cover every path",
	Run:  runRefbalance,
}

// refPair is one acquire/release discipline. ownerSuffix anchors the
// method to its defining type (package-path-qualified suffix), so an
// unrelated method that shares the name is not matched.
type refPair struct {
	acquire, release string
	// valueTracked: the acquire call's first non-error result is the
	// resource; the release takes it as an argument. Otherwise the
	// acquire's receiver is the resource and the release is a method on
	// it.
	valueTracked bool
	ownerSuffix  string
}

// refPairs is the discipline table. Adding a resource is one line.
var refPairs = []refPair{
	{acquire: "Flat", release: "ReleaseFlat", ownerSuffix: "internal/timeseries.Dataset"},
	{acquire: "fetch", release: "unpin", valueTracked: true, ownerSuffix: "internal/engine/rowstore.bufferPool"},
	{acquire: "allocate", release: "unpin", valueTracked: true, ownerSuffix: "internal/engine/rowstore.bufferPool"},
}

func runRefbalance(p *Pass) {
	pf := p.Facts()
	for _, ff := range pf.funcs {
		if isTestFile(p.Fset, ff.decl.Pos()) {
			continue
		}
		for _, u := range flowUnits(ff.decl) {
			checkUnitBalance(p, pf, u)
		}
	}
	checkReviveProtocol(p, pf)
}

// reviveReleaseNames is the set of method names that count as releasing
// shared state under a Close latch: the table's releases plus the
// refcount idiom "release". Close itself is excluded — the Cursor
// contract makes Close idempotent, so a wrapper that merely forwards
// Close may revive without double-releasing.
func reviveReleaseNames() map[string]bool {
	names := map[string]bool{"release": true}
	for _, pr := range refPairs {
		names[pr.release] = true
	}
	return names
}

// checkReviveProtocol flags Reset methods that clear the latch field
// their type's Close releases under.
func checkReviveProtocol(p *Pass, pf *packageFacts) {
	releases := reviveReleaseNames()
	latches := map[string]string{} // receiver type name -> latch field
	var resets []*funcFacts
	for _, ff := range pf.funcs {
		if ff.decl.Recv == nil || isTestFile(p.Fset, ff.decl.Pos()) {
			continue
		}
		switch ff.decl.Name.Name {
		case "Close":
			if field := closeLatchField(ff.decl, releases); field != "" {
				latches[recvTypeName(ff.decl)] = field
			}
		case "Reset":
			resets = append(resets, ff)
		}
	}
	for _, ff := range resets {
		typeName := recvTypeName(ff.decl)
		field := latches[typeName]
		if field == "" {
			continue
		}
		if as := latchClearAssign(ff.decl, field); as != nil {
			p.Reportf(as.Pos(),
				"Reset revives a closed %s by clearing %s; Close released shared state under that latch, so the revived cursor's next Close double-releases it — leave closed cursors closed (rewind only)",
				typeName, field)
		}
	}
}

// recvTypeName returns the receiver's (pointer-stripped) type name, or
// "" when the method has an exotic receiver.
func recvTypeName(decl *ast.FuncDecl) string {
	if len(decl.Recv.List) == 0 {
		return ""
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// recvIdentName returns the receiver variable's name, or "".
func recvIdentName(decl *ast.FuncDecl) string {
	if len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return ""
	}
	return decl.Recv.List[0].Names[0].Name
}

// closeLatchField looks for the exactly-once release shape inside a
// Close body — `if !recv.F { recv.F = true; …release call… }` — and
// returns the latch field F, or "".
func closeLatchField(decl *ast.FuncDecl, releases map[string]bool) string {
	recv := recvIdentName(decl)
	if recv == "" || decl.Body == nil {
		return ""
	}
	var field string
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if field != "" {
			return false
		}
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		not, ok := ifStmt.Cond.(*ast.UnaryExpr)
		if !ok || not.Op != token.NOT {
			return true
		}
		f := recvField(not.X, recv)
		if f == "" {
			return true
		}
		var latched, released bool
		ast.Inspect(ifStmt.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for i, lhs := range m.Lhs {
					if recvField(lhs, recv) == f && i < len(m.Rhs) && isIdent(m.Rhs[i], "true") {
						latched = true
					}
				}
			case *ast.CallExpr:
				if sel, ok := m.Fun.(*ast.SelectorExpr); ok && releases[sel.Sel.Name] {
					released = true
				}
			}
			return true
		})
		if latched && released {
			field = f
		}
		return true
	})
	return field
}

// latchClearAssign finds `recv.field = false` in a Reset body.
func latchClearAssign(decl *ast.FuncDecl, field string) *ast.AssignStmt {
	recv := recvIdentName(decl)
	if recv == "" || decl.Body == nil {
		return nil
	}
	var found *ast.AssignStmt
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if recvField(lhs, recv) == field && i < len(as.Rhs) && isIdent(as.Rhs[i], "false") {
				found = as
				return false
			}
		}
		return true
	})
	return found
}

// recvField returns the field name when e is `recv.F`, else "".
func recvField(e ast.Expr, recv string) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if !isIdent(sel.X, recv) {
		return ""
	}
	return sel.Sel.Name
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func checkUnitBalance(p *Pass, pf *packageFacts, u *flowUnit) {
	u.eachStmt(func(s ast.Stmt) {
		for i := range refPairs {
			pair := &refPairs[i]
			if pair.valueTracked {
				checkValueAcquire(p, pf, u, s, pair)
			} else {
				checkReceiverAcquire(p, pf, u, s, pair)
			}
		}
	})
}

// checkValueAcquire handles `x, err := owner.acquire(...)`.
func checkValueAcquire(p *Pass, pf *packageFacts, u *flowUnit, s ast.Stmt, pair *refPair) {
	acq := assignAcquisition(p, s, func(types.Type) bool { return true })
	if acq == nil || !isPairCall(p, acq.call, pair) {
		return
	}
	if acq.obj.Pos() < u.body.Pos() || acq.obj.Pos() > u.body.End() {
		return
	}
	q := &flowQuery{
		p:      p,
		pf:     pf,
		obj:    acq.obj,
		errObj: acq.err,
		isRelease: func(sel *ast.SelectorExpr, asReceiver bool) bool {
			return sel.Sel.Name == pair.release
		},
		calleeSettles: func(gf *funcFacts, i int) bool {
			return gf.releasesParams[i][pair.release]
		},
	}
	if bad := q.run(u, s); bad != nil {
		p.Reportf(s.Pos(),
			"%s from %s does not reach %s on the path leaving via %s; release it on every path or defer the release",
			acq.obj.Name(), pair.acquire, pair.release, describeExit(p, bad))
	}
}

// checkReceiverAcquire handles `res.acquire(...)` pinning state on res.
func checkReceiverAcquire(p *Pass, pf *packageFacts, u *flowUnit, s ast.Stmt, pair *refPair) {
	call := stmtCall(s)
	if call == nil || !isPairCall(p, call, pair) {
		return
	}
	sel := call.Fun.(*ast.SelectorExpr) // isPairCall guarantees the shape
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return // res.field.Acquire(): owner is not a trackable local
	}
	obj := p.Info.Uses[recv]
	if obj == nil {
		return
	}
	// Only locals declared in this unit: a parameter, receiver or
	// captured variable is owned (and released) by someone else.
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	if obj.Pos() < u.body.Pos() || obj.Pos() > u.body.End() {
		return
	}
	q := &flowQuery{
		p:   p,
		pf:  pf,
		obj: obj,
		isRelease: func(sel *ast.SelectorExpr, asReceiver bool) bool {
			return asReceiver && sel.Sel.Name == pair.release
		},
		calleeSettles: func(gf *funcFacts, i int) bool {
			return gf.releasesParams[i][pair.release]
		},
	}
	if bad := q.run(u, s); bad != nil {
		p.Reportf(s.Pos(),
			"%s.%s is not balanced by %s on the path leaving via %s; release it on every path or defer the release",
			recv.Name, pair.acquire, pair.release, describeExit(p, bad))
	}
}

// stmtCall extracts a call evaluated by a plain statement: an
// expression statement or a single-call assignment.
func stmtCall(s ast.Stmt) *ast.CallExpr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return call
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				return call
			}
		}
	}
	return nil
}

// isPairCall reports whether the call invokes pair.acquire on the
// pair's owner type.
func isPairCall(p *Pass, call *ast.CallExpr, pair *refPair) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != pair.acquire {
		return false
	}
	recvType := p.Info.TypeOf(sel.X)
	return typeHasSuffix(recvType, pair.ownerSuffix)
}

// typeHasSuffix matches a (possibly pointer) named type against a
// package-path-qualified suffix like "internal/timeseries.Dataset".
func typeHasSuffix(t types.Type, suffix string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	return strings.HasSuffix(full, suffix)
}
