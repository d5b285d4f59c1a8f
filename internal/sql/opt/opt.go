// Package opt implements SamzaSQL's rule-based logical optimizer (§4.2):
// constant folding, filter merging, predicate pushdown through projections
// and into join sides, and projection fusion, followed by a required-columns
// pass that lets scans skip the columns no operator reads. Rules fire to
// fixpoint; every rule preserves query semantics, a property the test suite
// checks by executing plans before and after optimization.
package opt

import (
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/types"
)

// Optimize rewrites the plan to fixpoint with all rules, then marks on every
// scan the columns the rewritten plan reads (prune.go).
func Optimize(root plan.Node) plan.Node {
	for i := 0; i < maxPasses; i++ {
		next, changed := rewrite(root)
		root = next
		if !changed {
			break
		}
	}
	return pruneColumns(root, allColumns(root))
}

const maxPasses = 10

// rewrite applies one bottom-up pass of all rules.
func rewrite(n plan.Node) (plan.Node, bool) {
	changed := false
	switch t := n.(type) {
	case *plan.Filter:
		in, c := rewrite(t.Input)
		t = &plan.Filter{Input: in, Cond: foldExpr(t.Cond, &changed)}
		changed = changed || c
		if out, ok := dropTrueFilter(t); ok {
			return out, true
		}
		if out, ok := mergeFilters(t); ok {
			out2, _ := rewrite(out)
			return out2, true
		}
		if out, ok := pushFilterThroughProject(t); ok {
			out2, _ := rewrite(out)
			return out2, true
		}
		if out, ok := pushFilterIntoJoin(t); ok {
			out2, _ := rewrite(out)
			return out2, true
		}
		return t, changed
	case *plan.Project:
		in, c := rewrite(t.Input)
		changed = changed || c
		exprs := make([]expr.Expr, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = foldExpr(e, &changed)
		}
		p := plan.NewProject(in, exprs, t.Names)
		if out, ok := mergeProjects(p); ok {
			return out, true
		}
		return p, changed
	case *plan.Aggregate:
		in, c := rewrite(t.Input)
		return plan.NewAggregate(in, t.Keys, t.Window, t.Aggs), changed || c
	case *plan.Analytic:
		in, c := rewrite(t.Input)
		return plan.NewAnalytic(in, t.Calls), changed || c
	case *plan.Join:
		l, c1 := rewrite(t.Left)
		r, c2 := rewrite(t.Right)
		return plan.NewJoin(l, r, t.Info), changed || c1 || c2
	case *plan.Insert:
		in, c := rewrite(t.Input)
		return &plan.Insert{Input: in, Target: t.Target}, changed || c
	default:
		return n, false
	}
}

// --- rule: constant folding ---

// foldExpr evaluates constant sub-expressions at plan time.
func foldExpr(e expr.Expr, changed *bool) expr.Expr {
	folded := fold(e, changed)
	return folded
}

func fold(e expr.Expr, changed *bool) expr.Expr {
	switch n := e.(type) {
	case *expr.ColRef, *expr.Const:
		return e
	case *expr.Binary:
		l := fold(n.L, changed)
		r := fold(n.R, changed)
		out := &expr.Binary{Op: n.Op, L: l, R: r, T: n.T}
		return tryEvalConst(out, changed)
	case *expr.Not:
		x := fold(n.X, changed)
		return tryEvalConst(&expr.Not{X: x}, changed)
	case *expr.Neg:
		x := fold(n.X, changed)
		return tryEvalConst(&expr.Neg{X: x}, changed)
	case *expr.IsNull:
		x := fold(n.X, changed)
		return tryEvalConst(&expr.IsNull{Not: n.Not, X: x}, changed)
	case *expr.Cast:
		x := fold(n.X, changed)
		return tryEvalConst(&expr.Cast{X: x, T: n.T}, changed)
	case *expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = fold(a, changed)
		}
		return tryEvalConst(&expr.Call{Fn: n.Fn, Args: args, T: n.T}, changed)
	case *expr.FloorTime:
		x := fold(n.X, changed)
		return tryEvalConst(&expr.FloorTime{X: x, UnitMillis: n.UnitMillis, UnitName: n.UnitName}, changed)
	case *expr.Case:
		whens := make([]expr.CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = expr.CaseWhen{When: fold(w.When, changed), Then: fold(w.Then, changed)}
		}
		var els expr.Expr
		if n.Else != nil {
			els = fold(n.Else, changed)
		}
		return &expr.Case{Whens: whens, Else: els, T: n.T}
	case *expr.Like:
		return &expr.Like{Not: n.Not, X: fold(n.X, changed), Pattern: fold(n.Pattern, changed)}
	case *expr.InList:
		list := make([]expr.Expr, len(n.List))
		for i, it := range n.List {
			list[i] = fold(it, changed)
		}
		return &expr.InList{Not: n.Not, X: fold(n.X, changed), List: list}
	default:
		return e
	}
}

// tryEvalConst evaluates e when all leaves are constants.
func tryEvalConst(e expr.Expr, changed *bool) expr.Expr {
	if _, already := e.(*expr.Const); already {
		return e
	}
	if hasColRef(e) {
		return e
	}
	ev, err := expr.Compile(e)
	if err != nil {
		return e
	}
	v, err := ev(nil)
	if err != nil {
		// Errors (e.g. division by zero) must surface at runtime, not
		// vanish at plan time.
		return e
	}
	*changed = true
	return &expr.Const{V: v, T: e.Type()}
}

func hasColRef(e expr.Expr) bool {
	found := false
	walk(e, func(x expr.Expr) {
		if _, ok := x.(*expr.ColRef); ok {
			found = true
		}
	})
	return found
}

func walk(e expr.Expr, fn func(expr.Expr)) {
	fn(e)
	switch n := e.(type) {
	case *expr.Binary:
		walk(n.L, fn)
		walk(n.R, fn)
	case *expr.Not:
		walk(n.X, fn)
	case *expr.Neg:
		walk(n.X, fn)
	case *expr.IsNull:
		walk(n.X, fn)
	case *expr.Cast:
		walk(n.X, fn)
	case *expr.Call:
		for _, a := range n.Args {
			walk(a, fn)
		}
	case *expr.FloorTime:
		walk(n.X, fn)
	case *expr.Case:
		for _, w := range n.Whens {
			walk(w.When, fn)
			walk(w.Then, fn)
		}
		if n.Else != nil {
			walk(n.Else, fn)
		}
	case *expr.Like:
		walk(n.X, fn)
		walk(n.Pattern, fn)
	case *expr.InList:
		walk(n.X, fn)
		for _, i := range n.List {
			walk(i, fn)
		}
	}
}

// --- rule: drop trivial filters ---

func dropTrueFilter(f *plan.Filter) (plan.Node, bool) {
	if c, ok := f.Cond.(*expr.Const); ok {
		if b, ok := c.V.(bool); ok && b {
			return f.Input, true
		}
	}
	return nil, false
}

// --- rule: merge stacked filters ---

func mergeFilters(f *plan.Filter) (plan.Node, bool) {
	inner, ok := f.Input.(*plan.Filter)
	if !ok {
		return nil, false
	}
	cond := &expr.Binary{Op: expr.And, L: inner.Cond, R: f.Cond, T: types.Boolean}
	return &plan.Filter{Input: inner.Input, Cond: cond}, true
}

// --- rule: push filter through project ---

// pushFilterThroughProject rewrites Filter(Project(in)) to
// Project(Filter(in)) by substituting projection expressions for column
// references. Only fires when every referenced projection is deterministic
// (all our expressions are) — the classic predicate-pushdown rule.
func pushFilterThroughProject(f *plan.Filter) (plan.Node, bool) {
	p, ok := f.Input.(*plan.Project)
	if !ok {
		return nil, false
	}
	cond, ok := substitute(f.Cond, p.Exprs)
	if !ok {
		return nil, false
	}
	return plan.NewProject(&plan.Filter{Input: p.Input, Cond: cond}, p.Exprs, p.Names), true
}

// substitute replaces ColRef(i) with subs[i]. Reports false when an index is
// out of range.
func substitute(e expr.Expr, subs []expr.Expr) (expr.Expr, bool) {
	switch n := e.(type) {
	case *expr.ColRef:
		if n.Idx < 0 || n.Idx >= len(subs) {
			return nil, false
		}
		return subs[n.Idx], true
	case *expr.Const:
		return n, true
	case *expr.Binary:
		l, ok1 := substitute(n.L, subs)
		r, ok2 := substitute(n.R, subs)
		if !ok1 || !ok2 {
			return nil, false
		}
		return &expr.Binary{Op: n.Op, L: l, R: r, T: n.T}, true
	case *expr.Not:
		x, ok := substitute(n.X, subs)
		if !ok {
			return nil, false
		}
		return &expr.Not{X: x}, true
	case *expr.Neg:
		x, ok := substitute(n.X, subs)
		if !ok {
			return nil, false
		}
		return &expr.Neg{X: x}, true
	case *expr.IsNull:
		x, ok := substitute(n.X, subs)
		if !ok {
			return nil, false
		}
		return &expr.IsNull{Not: n.Not, X: x}, true
	case *expr.Cast:
		x, ok := substitute(n.X, subs)
		if !ok {
			return nil, false
		}
		return &expr.Cast{X: x, T: n.T}, true
	case *expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			s, ok := substitute(a, subs)
			if !ok {
				return nil, false
			}
			args[i] = s
		}
		return &expr.Call{Fn: n.Fn, Args: args, T: n.T}, true
	case *expr.FloorTime:
		x, ok := substitute(n.X, subs)
		if !ok {
			return nil, false
		}
		return &expr.FloorTime{X: x, UnitMillis: n.UnitMillis, UnitName: n.UnitName}, true
	case *expr.Case:
		whens := make([]expr.CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			we, ok1 := substitute(w.When, subs)
			te, ok2 := substitute(w.Then, subs)
			if !ok1 || !ok2 {
				return nil, false
			}
			whens[i] = expr.CaseWhen{When: we, Then: te}
		}
		var els expr.Expr
		if n.Else != nil {
			var ok bool
			els, ok = substitute(n.Else, subs)
			if !ok {
				return nil, false
			}
		}
		return &expr.Case{Whens: whens, Else: els, T: n.T}, true
	case *expr.Like:
		x, ok1 := substitute(n.X, subs)
		pt, ok2 := substitute(n.Pattern, subs)
		if !ok1 || !ok2 {
			return nil, false
		}
		return &expr.Like{Not: n.Not, X: x, Pattern: pt}, true
	case *expr.InList:
		x, ok := substitute(n.X, subs)
		if !ok {
			return nil, false
		}
		list := make([]expr.Expr, len(n.List))
		for i, it := range n.List {
			s, ok := substitute(it, subs)
			if !ok {
				return nil, false
			}
			list[i] = s
		}
		return &expr.InList{Not: n.Not, X: x, List: list}, true
	default:
		return nil, false
	}
}

// --- rule: push filter conjuncts into join sides ---

// pushFilterIntoJoin moves conjuncts that reference only one side of a join
// below the join, shrinking join state.
func pushFilterIntoJoin(f *plan.Filter) (plan.Node, bool) {
	j, ok := f.Input.(*plan.Join)
	if !ok {
		return nil, false
	}
	split := j.Left.Row().Arity()
	var leftConj, rightConj, rest []expr.Expr
	for _, c := range conjuncts(f.Cond) {
		lo, hi, any := colRange(c)
		switch {
		case any && hi < split:
			leftConj = append(leftConj, c)
		case any && lo >= split:
			rightConj = append(rightConj, shiftCols(c, -split))
		default:
			rest = append(rest, c)
		}
	}
	if len(leftConj) == 0 && len(rightConj) == 0 {
		return nil, false
	}
	left := j.Left
	if len(leftConj) > 0 {
		left = &plan.Filter{Input: left, Cond: andAll(leftConj)}
	}
	right := j.Right
	if len(rightConj) > 0 {
		right = &plan.Filter{Input: right, Cond: andAll(rightConj)}
	}
	var out plan.Node = plan.NewJoin(left, right, j.Info)
	if len(rest) > 0 {
		out = &plan.Filter{Input: out, Cond: andAll(rest)}
	}
	return out, true
}

func conjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.And {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

func andAll(es []expr.Expr) expr.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &expr.Binary{Op: expr.And, L: out, R: e, T: types.Boolean}
	}
	return out
}

func colRange(e expr.Expr) (lo, hi int, any bool) {
	lo, hi = 1<<30, -1
	walk(e, func(x expr.Expr) {
		if c, ok := x.(*expr.ColRef); ok {
			any = true
			if c.Idx < lo {
				lo = c.Idx
			}
			if c.Idx > hi {
				hi = c.Idx
			}
		}
	})
	return lo, hi, any
}

// shiftCols rebases column references by delta (for pushing below the right
// join input). The expression must only reference shiftable columns.
func shiftCols(e expr.Expr, delta int) expr.Expr {
	subs := func(c *expr.ColRef) expr.Expr {
		return &expr.ColRef{Idx: c.Idx + delta, Name: c.Name, T: c.T}
	}
	out, _ := mapCols(e, subs)
	return out
}

func mapCols(e expr.Expr, fn func(*expr.ColRef) expr.Expr) (expr.Expr, bool) {
	// Build a substitution list lazily via substitute: simpler to reuse the
	// recursion by creating a wrapper around each node type.
	switch n := e.(type) {
	case *expr.ColRef:
		return fn(n), true
	case *expr.Const:
		return n, true
	case *expr.Binary:
		l, _ := mapCols(n.L, fn)
		r, _ := mapCols(n.R, fn)
		return &expr.Binary{Op: n.Op, L: l, R: r, T: n.T}, true
	case *expr.Not:
		x, _ := mapCols(n.X, fn)
		return &expr.Not{X: x}, true
	case *expr.Neg:
		x, _ := mapCols(n.X, fn)
		return &expr.Neg{X: x}, true
	case *expr.IsNull:
		x, _ := mapCols(n.X, fn)
		return &expr.IsNull{Not: n.Not, X: x}, true
	case *expr.Cast:
		x, _ := mapCols(n.X, fn)
		return &expr.Cast{X: x, T: n.T}, true
	case *expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i], _ = mapCols(a, fn)
		}
		return &expr.Call{Fn: n.Fn, Args: args, T: n.T}, true
	case *expr.FloorTime:
		x, _ := mapCols(n.X, fn)
		return &expr.FloorTime{X: x, UnitMillis: n.UnitMillis, UnitName: n.UnitName}, true
	case *expr.Case:
		whens := make([]expr.CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			we, _ := mapCols(w.When, fn)
			te, _ := mapCols(w.Then, fn)
			whens[i] = expr.CaseWhen{When: we, Then: te}
		}
		var els expr.Expr
		if n.Else != nil {
			els, _ = mapCols(n.Else, fn)
		}
		return &expr.Case{Whens: whens, Else: els, T: n.T}, true
	case *expr.Like:
		x, _ := mapCols(n.X, fn)
		p, _ := mapCols(n.Pattern, fn)
		return &expr.Like{Not: n.Not, X: x, Pattern: p}, true
	case *expr.InList:
		x, _ := mapCols(n.X, fn)
		list := make([]expr.Expr, len(n.List))
		for i, it := range n.List {
			list[i], _ = mapCols(it, fn)
		}
		return &expr.InList{Not: n.Not, X: x, List: list}, true
	default:
		return e, false
	}
}

// --- rule: merge stacked projects ---

func mergeProjects(p *plan.Project) (plan.Node, bool) {
	inner, ok := p.Input.(*plan.Project)
	if !ok {
		return nil, false
	}
	exprs := make([]expr.Expr, len(p.Exprs))
	for i, e := range p.Exprs {
		s, ok := substitute(e, inner.Exprs)
		if !ok {
			return nil, false
		}
		exprs[i] = s
	}
	return plan.NewProject(inner.Input, exprs, p.Names), true
}
