package opt

import (
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/plan"
)

// --- pass: required columns ---

// pruneColumns walks the plan top-down, carrying the set of each node's
// output columns that some ancestor reads, and records on every scan the
// source columns that survive (plan.Scan.Required). Arity and column indexes
// never change — an unread column is simply left NULL by the scan's sparse
// decode — so no expression is remapped, and everything above the scan that
// stores or forwards whole rows (join state, window contributions) carries
// nothing for the columns nobody reads. The tree is rebuilt rather than
// edited: the unoptimized plan shares its scan nodes and stays the
// full-decode reference.
func pruneColumns(n plan.Node, need []bool) plan.Node {
	switch t := n.(type) {
	case *plan.Insert:
		return &plan.Insert{Input: pruneColumns(t.Input, allColumns(t.Input)), Target: t.Target}
	case *plan.Project:
		// The projection evaluates every output expression whether or not
		// its consumer reads the result, so all their inputs are read. An
		// identity projection (SELECT *) thereby requires every column.
		in := noColumns(t.Input)
		for _, e := range t.Exprs {
			markColRefs(e, in)
		}
		return plan.NewProject(pruneColumns(t.Input, in), t.Exprs, t.Names)
	case *plan.Filter:
		in := append([]bool(nil), need...)
		markColRefs(t.Cond, in)
		return &plan.Filter{Input: pruneColumns(t.Input, in), Cond: t.Cond}
	case *plan.Aggregate:
		in := noColumns(t.Input)
		for _, k := range t.Keys {
			markColRefs(k, in)
		}
		if t.Window != nil {
			markColRefs(t.Window.Ts, in)
		}
		for _, a := range t.Aggs {
			markColRefs(a.Arg, in)
		}
		return plan.NewAggregate(pruneColumns(t.Input, in), t.Keys, t.Window, t.Aggs)
	case *plan.Analytic:
		// Output = the input's columns, then one value per call.
		in := append([]bool(nil), need[:t.Input.Row().Arity()]...)
		for _, c := range t.Calls {
			for _, p := range c.PartitionBy {
				markColRefs(p, in)
			}
			markColRefs(c.OrderBy, in)
			markColRefs(c.Arg, in)
		}
		return plan.NewAnalytic(pruneColumns(t.Input, in), t.Calls)
	case *plan.Join:
		// Output = left columns then right columns; the condition and both
		// key expressions are bound over that combined row.
		both := append([]bool(nil), need...)
		markColRefs(t.Info.On, both)
		markColRefs(t.Info.LeftKey, both)
		markColRefs(t.Info.RightKey, both)
		split := t.Left.Row().Arity()
		return plan.NewJoin(pruneColumns(t.Left, both[:split]), pruneColumns(t.Right, both[split:]), t.Info)
	case *plan.Scan:
		req := append([]bool(nil), need...)
		// The scan itself reads the event time out of the timestamp column.
		if t.Object.TimestampCol != "" {
			if i := t.Object.Row.Index(t.Object.TimestampCol); i >= 0 {
				req[i] = true
			}
		}
		s := *t
		s.Required = nil // every column read: the scan decodes whole rows
		for _, r := range req {
			if !r {
				s.Required = req
				break
			}
		}
		return &s
	default:
		return n
	}
}

func allColumns(n plan.Node) []bool {
	need := noColumns(n)
	for i := range need {
		need[i] = true
	}
	return need
}

func noColumns(n plan.Node) []bool { return make([]bool, n.Row().Arity()) }

// markColRefs marks, in need, every column e (nil for an absent argument)
// references.
func markColRefs(e expr.Expr, need []bool) {
	if e == nil {
		return
	}
	walk(e, func(x expr.Expr) {
		if c, ok := x.(*expr.ColRef); ok && c.Idx >= 0 && c.Idx < len(need) {
			need[c.Idx] = true
		}
	})
}
