// Package plan defines SamzaSQL's logical relational algebra — a tree of
// scan, filter, project, aggregate, analytic-window, join and insert nodes —
// and the builder that assembles it from a validated query (§4.2: "The
// physical plan is a tree of relational algebra operators such as scan,
// filter, project and join where scan operators are at the leaf nodes").
package plan

import (
	"fmt"
	"strings"

	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
)

// Node is one logical operator.
type Node interface {
	// Row is the operator's output row type.
	Row() *types.RowType
	// Inputs returns child operators.
	Inputs() []Node
	fmt.Stringer
}

// Scan reads a base stream or table.
type Scan struct {
	Object *catalog.Object
	// Streaming marks unbounded consumption (STREAM mode); bounded
	// historical reads otherwise (§3.3).
	Streaming bool
	// Bootstrap marks the relation side of a stream-to-relation join,
	// consumed as a Samza bootstrap stream (§4.4).
	Bootstrap bool
	// RepartitionCol, when set, requires the stream to be re-keyed by this
	// column through an intermediate topic before this scan consumes it
	// (§7 future work 1).
	RepartitionCol string
	// Required marks, index-aligned with the row type, the columns some
	// operator above reads; the scan decodes only those and leaves the rest
	// NULL, arity unchanged. Nil — what the plan builder produces and what
	// the optimizer's required-columns pass leaves when every column is read
	// — means all of them.
	Required []bool
}

// Row implements Node.
func (s *Scan) Row() *types.RowType { return s.Object.Row }

// Inputs implements Node.
func (s *Scan) Inputs() []Node { return nil }

func (s *Scan) String() string {
	mode := "table"
	if s.Streaming {
		mode = "stream"
	}
	if s.Bootstrap {
		mode = "bootstrap"
	}
	out := fmt.Sprintf("Scan(%s, %s)", s.Object.Name, mode)
	if s.RepartitionCol != "" {
		stage := "repartition by " + s.RepartitionCol
		if keep := s.RepartitionKeep(); keep != nil {
			stage += " keeping " + strings.Join(s.columnNames(keep), ", ")
		}
		out = fmt.Sprintf("Scan(%s, %s, %s)", s.Object.Name, mode, stage)
	}
	if s.Required != nil {
		out += " cols=[" + strings.Join(s.columnNames(s.Required), ", ") + "]"
	}
	return out
}

// RepartitionKeep marks, index-aligned with the row type, the source
// columns a repartitioned scan's re-keying stage forwards: Required plus
// the key, which the stage reads, and the timestamp column, which the scan
// reads. Nil, when Required is nil, forwards whole messages.
func (s *Scan) RepartitionKeep() []bool {
	if s.Required == nil {
		return nil
	}
	keep := append([]bool(nil), s.Required...)
	for _, c := range []string{s.RepartitionCol, s.Object.TimestampCol} {
		if i := s.Object.Row.Index(c); c != "" && i >= 0 {
			keep[i] = true
		}
	}
	return keep
}

// columnNames returns the names of the columns marked in mask.
func (s *Scan) columnNames(mask []bool) []string {
	var cols []string
	for i, r := range mask {
		if r {
			cols = append(cols, s.Object.Row.Columns[i].Name)
		}
	}
	return cols
}

// Filter keeps rows satisfying Cond.
type Filter struct {
	Input Node
	Cond  expr.Expr
}

// Row implements Node.
func (f *Filter) Row() *types.RowType { return f.Input.Row() }

// Inputs implements Node.
func (f *Filter) Inputs() []Node { return []Node{f.Input} }

func (f *Filter) String() string { return fmt.Sprintf("Filter(%s)", f.Cond) }

// Project computes output expressions.
type Project struct {
	Input Node
	Exprs []expr.Expr
	Names []string
	row   *types.RowType
}

// NewProject builds a Project with its row type.
func NewProject(input Node, exprs []expr.Expr, names []string) *Project {
	cols := make([]types.Column, len(exprs))
	for i := range exprs {
		cols[i] = types.Column{Name: names[i], Type: exprs[i].Type()}
	}
	return &Project{Input: input, Exprs: exprs, Names: names, row: types.NewRowType(cols...)}
}

// Row implements Node.
func (p *Project) Row() *types.RowType { return p.row }

// Inputs implements Node.
func (p *Project) Inputs() []Node { return []Node{p.Input} }

func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e, p.Names[i])
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Aggregate groups rows (optionally under a HOP/TUMBLE window) and computes
// aggregates. Output row = [keys..., aggs...].
type Aggregate struct {
	Input  Node
	Keys   []expr.Expr
	Window *validate.GroupWindow
	Aggs   []*validate.BoundAgg
	row    *types.RowType
}

// NewAggregate builds an Aggregate with its row type.
func NewAggregate(input Node, keys []expr.Expr, win *validate.GroupWindow, aggs []*validate.BoundAgg) *Aggregate {
	var cols []types.Column
	for i, k := range keys {
		cols = append(cols, types.Column{Name: fmt.Sprintf("$key%d", i), Type: k.Type()})
	}
	for i, a := range aggs {
		cols = append(cols, types.Column{Name: fmt.Sprintf("$agg%d", i), Type: a.T})
	}
	return &Aggregate{Input: input, Keys: keys, Window: win, Aggs: aggs, row: types.NewRowType(cols...)}
}

// Row implements Node.
func (a *Aggregate) Row() *types.RowType { return a.row }

// Inputs implements Node.
func (a *Aggregate) Inputs() []Node { return []Node{a.Input} }

func (a *Aggregate) String() string {
	var parts []string
	if a.Window != nil {
		kind := "TUMBLE"
		if a.Window.Kind == validate.WindowHop {
			kind = "HOP"
		}
		parts = append(parts, fmt.Sprintf("%s(%s, emit=%dms, retain=%dms)",
			kind, a.Window.Ts, a.Window.EmitMillis, a.Window.RetainMillis))
	}
	for _, k := range a.Keys {
		parts = append(parts, k.String())
	}
	for _, ag := range a.Aggs {
		if ag.Arg != nil {
			parts = append(parts, fmt.Sprintf("%s(%s)", ag.Fn, ag.Arg))
		} else {
			parts = append(parts, ag.Fn+"(*)")
		}
	}
	return "Aggregate(" + strings.Join(parts, ", ") + ")"
}

// Analytic extends each input row with sliding-window aggregate values
// (§3.7). Output row = [input..., calls...].
type Analytic struct {
	Input Node
	Calls []*validate.BoundAnalytic
	row   *types.RowType
}

// NewAnalytic builds an Analytic with its row type.
func NewAnalytic(input Node, calls []*validate.BoundAnalytic) *Analytic {
	cols := append([]types.Column(nil), input.Row().Columns...)
	for i, c := range calls {
		cols = append(cols, types.Column{Name: fmt.Sprintf("$win%d", i), Type: c.T})
	}
	return &Analytic{Input: input, Calls: calls, row: types.NewRowType(cols...)}
}

// Row implements Node.
func (a *Analytic) Row() *types.RowType { return a.row }

// Inputs implements Node.
func (a *Analytic) Inputs() []Node { return []Node{a.Input} }

func (a *Analytic) String() string {
	parts := make([]string, len(a.Calls))
	for i, c := range a.Calls {
		frame := "UNBOUNDED"
		switch {
		case c.IsRows:
			frame = fmt.Sprintf("ROWS %d", c.FrameRows)
		case !c.Unbounded:
			frame = fmt.Sprintf("RANGE %dms", c.FrameMillis)
		}
		parts[i] = fmt.Sprintf("%s(%s) %s", c.Fn, c.Arg, frame)
	}
	return "SlidingWindow(" + strings.Join(parts, ", ") + ")"
}

// Join combines two inputs. Output row = left columns then right columns.
type Join struct {
	Left, Right Node
	Info        *validate.JoinInfo
	row         *types.RowType
}

// NewJoin builds a Join with its row type.
func NewJoin(left, right Node, info *validate.JoinInfo) *Join {
	cols := append([]types.Column(nil), left.Row().Columns...)
	cols = append(cols, right.Row().Columns...)
	return &Join{Left: left, Right: right, Info: info, row: types.NewRowType(cols...)}
}

// Row implements Node.
func (j *Join) Row() *types.RowType { return j.row }

// Inputs implements Node.
func (j *Join) Inputs() []Node { return []Node{j.Left, j.Right} }

func (j *Join) String() string {
	if j.Info.WindowMillis > 0 {
		return fmt.Sprintf("StreamJoin(on=%s, window=%dms)", j.Info.On, j.Info.WindowMillis)
	}
	return fmt.Sprintf("Join(on=%s)", j.Info.On)
}

// Insert routes the query result into a named output stream — the "stream
// insert" operator of Figure 4.
type Insert struct {
	Input Node
	// Target is the output topic.
	Target string
}

// Row implements Node.
func (i *Insert) Row() *types.RowType { return i.Input.Row() }

// Inputs implements Node.
func (i *Insert) Inputs() []Node { return []Node{i.Input} }

func (i *Insert) String() string { return fmt.Sprintf("StreamInsert(%s)", i.Target) }

// Format renders a plan tree indented, scan leaves deepest.
func Format(n Node) string {
	var sb strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteString("\n")
		for _, c := range n.Inputs() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
