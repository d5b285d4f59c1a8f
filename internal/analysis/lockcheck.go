package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// LockDiscipline enforces the locking rules the single-lock poll path and
// the batched producer path rely on:
//
//  1. no blocking channel operation and no Produce/Flush-class call while a
//     mutex is held — the broker signals subscribers *after* unlocking for
//     exactly this reason, and a produce under a task lock can deadlock
//     against a consumer parked on the same partition;
//  2. no return while a mutex is still held without a deferred unlock —
//     the multi-return early-exit that leaks the lock.
//
// Copying a lock by value is go vet's copylocks check, which CI runs first.
//
// The analysis is a linear, branch-aware walk over each function body (an
// intraprocedural approximation, not a full CFG): branches fork the held-lock
// state, and after a branch a lock counts as held only if every continuing
// path still holds it.
var LockDiscipline = &Analyzer{
	Name: "lock-discipline",
	Doc: "no blocking channel op or Produce/Flush-class call while a lock is held; " +
		"no return while a lock is held without defer Unlock",
	Run: runLockDiscipline,
}

// blockingCallsUnderLock are method names that may block on another lock or
// wake other goroutines and therefore must not run under a held mutex.
var blockingCallsUnderLock = map[string]bool{
	"Produce":      true,
	"ProduceBatch": true,
	"Send":         true,
	"SendBatch":    true,
	"SendTo":       true,
	"Flush":        true,
}

func runLockDiscipline(pass *Pass) {
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				walkLockRegions(pass, decl.Body.List, lockState{})
			}
		}
	}
}

// lockKind reports the sync primitive t contains by value ("" when none),
// looking through named types, structs and arrays. lockCall and lock-order
// use it to tell a sync primitive's Lock/Unlock from unrelated methods.
func lockKind(t types.Type) string {
	return lockKindSeen(t, map[types.Type]bool{})
}

func lockKindSeen(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
				return "sync." + obj.Name()
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if k := lockKindSeen(u.Field(i).Type(), seen); k != "" {
				return k
			}
		}
	case *types.Array:
		return lockKindSeen(u.Elem(), seen)
	}
	return ""
}

// ---- held-lock regions ----

// lockState maps a lock expression (printed, e.g. "c.mu") to whether its
// unlock is deferred (true = safe on every exit path).
type lockState map[string]bool

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// walkLockRegions interprets stmts linearly, forking on branches. It returns
// the state after the statements and whether the path always terminates
// (return/panic) before reaching the end.
func walkLockRegions(pass *Pass, stmts []ast.Stmt, held lockState) (lockState, bool) {
	for _, stmt := range stmts {
		var terminated bool
		held, terminated = walkLockStmt(pass, stmt, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, held lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lock, op := lockCall(pass, call); lock != "" {
				switch op {
				case "Lock", "RLock":
					held[lock] = false
				case "Unlock", "RUnlock":
					delete(held, lock)
				}
				return held, false
			}
		}
		checkExprUnderLock(pass, s.X, held)
	case *ast.DeferStmt:
		if lock, op := lockCall(pass, s.Call); lock != "" && (op == "Unlock" || op == "RUnlock") {
			if _, ok := held[lock]; ok {
				held[lock] = true // deferred: released on every exit path
			}
			return held, false
		}
		checkExprUnderLock(pass, s.Call, held)
	case *ast.SendStmt:
		reportChanOpUnderLock(pass, s.Arrow, held, "channel send")
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkExprUnderLock(pass, rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkExprUnderLock(pass, r, held)
		}
		for lock, deferred := range held {
			if !deferred {
				pass.Reportf(s.Pos(), "returns while %s is locked with no defer %s.Unlock(); a multi-return function must defer the unlock (or unlock on every path before returning)", lock, lock)
			}
		}
		return held, true
	case *ast.BlockStmt:
		return walkLockRegions(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = walkLockStmt(pass, s.Init, held)
		}
		checkExprUnderLock(pass, s.Cond, held)
		thenState, thenTerm := walkLockRegions(pass, s.Body.List, held.clone())
		elseState, elseTerm := held.clone(), false
		if s.Else != nil {
			elseState, elseTerm = walkLockStmt(pass, s.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			return intersectLocks(thenState, elseState), false
		}
	case *ast.ForStmt, *ast.RangeStmt, *ast.LabeledStmt:
		// Loop bodies fork the state; locks taken inside a loop iteration
		// are expected to be released inside it, so the post-loop state is
		// the entry state.
		var body *ast.BlockStmt
		switch s := stmt.(type) {
		case *ast.ForStmt:
			if s.Cond != nil {
				checkExprUnderLock(pass, s.Cond, held)
			}
			body = s.Body
		case *ast.RangeStmt:
			checkExprUnderLock(pass, s.X, held)
			body = s.Body
		case *ast.LabeledStmt:
			return walkLockStmt(pass, s.Stmt, held)
		}
		walkLockRegions(pass, body.List, held.clone())
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var bodyList []ast.Stmt
		if sw, ok := stmt.(*ast.SwitchStmt); ok {
			bodyList = sw.Body.List
		} else {
			bodyList = stmt.(*ast.TypeSwitchStmt).Body.List
		}
		states := []lockState{}
		allTerm := len(bodyList) > 0
		for _, cc := range bodyList {
			clause := cc.(*ast.CaseClause)
			st, term := walkLockRegions(pass, clause.Body, held.clone())
			if !term {
				states = append(states, st)
				allTerm = false
			}
		}
		if allTerm && hasDefaultClause(bodyList) {
			return held, true
		}
		states = append(states, held) // a missing/failing case falls through
		return intersectAll(states), false
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			reportChanOpUnderLock(pass, s.Pos(), held, "blocking select")
		}
		states := []lockState{}
		allTerm := len(s.Body.List) > 0
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			st, term := walkLockRegions(pass, clause.Body, held.clone())
			if !term {
				states = append(states, st)
				allTerm = false
			}
		}
		if allTerm {
			return held, true
		}
		return intersectAll(states), false
	case *ast.GoStmt:
		// The spawned goroutine runs with its own (empty) lock state.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			walkLockRegions(pass, fl.Body.List, lockState{})
		}
	case *ast.BranchStmt:
		// break/continue/goto end this linear path conservatively.
		return held, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkExprUnderLock(pass, v, held)
					}
				}
			}
		}
	}
	return held, false
}

// checkExprUnderLock flags blocking channel receives and Produce/Flush-class
// calls appearing in e while any lock is held.
func checkExprUnderLock(pass *Pass, e ast.Expr, held lockState) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, under its own state
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportChanOpUnderLock(pass, n.OpPos, held, "channel receive")
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !blockingCallsUnderLock[sel.Sel.Name] {
				return true
			}
			// Only method calls can reach the broker/store stack; plain
			// functions named Send etc. in other packages are fine.
			if pass.Info().Selections[sel] == nil {
				return true
			}
			for lock := range held {
				pass.Reportf(n.Pos(), "calls %s.%s while %s is held; produce/flush paths take partition locks and wake consumers, so release %s first (snapshot under the lock, then call)", exprString(pass, sel.X), sel.Sel.Name, lock, lock)
			}
		}
		return true
	})
}

func reportChanOpUnderLock(pass *Pass, pos token.Pos, held lockState, what string) {
	for lock := range held {
		pass.Reportf(pos, "%s while %s is held can block every other user of %s; move the channel operation outside the critical section", what, lock, lock)
	}
}

// lockCall returns (lockExpr, op) when call is x.Lock/RLock/Unlock/RUnlock()
// with no arguments on a sync (or sync-embedding) receiver.
func lockCall(pass *Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	// The receiver must be (or embed) a sync lock; this keeps unrelated
	// Lock() methods out of the analysis.
	if t := pass.TypeOf(sel.X); t != nil {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if lockKind(t) == "" {
			return "", ""
		}
	}
	return exprString(pass, sel.X), op
}

func exprString(pass *Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset(), e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

func intersectLocks(a, b lockState) lockState {
	out := lockState{}
	for k, v := range a {
		if bv, ok := b[k]; ok {
			out[k] = v || bv
		}
	}
	return out
}

func intersectAll(states []lockState) lockState {
	if len(states) == 0 {
		return lockState{}
	}
	out := states[0]
	for _, s := range states[1:] {
		out = intersectLocks(out, s)
	}
	return out
}

func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, cc := range clauses {
		if clause, ok := cc.(*ast.CaseClause); ok && clause.List == nil {
			return true
		}
	}
	return false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if clause, ok := cc.(*ast.CommClause); ok && clause.Comm == nil {
			return true
		}
	}
	return false
}
