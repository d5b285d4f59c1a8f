package validate

import (
	"fmt"

	"samzasql/internal/sql/ast"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/udf"
)

// GroupWindowKind classifies the GROUP BY window function (§3.6).
type GroupWindowKind int

// Group window kinds.
const (
	// WindowNone means plain (or no) grouping.
	WindowNone GroupWindowKind = iota
	// WindowTumble emits complete, non-overlapping windows.
	WindowTumble
	// WindowHop emits every EmitMillis over the last RetainMillis.
	WindowHop
)

// GroupWindow is a bound HOP/TUMBLE specification.
type GroupWindow struct {
	Kind GroupWindowKind
	// Ts is the timestamp expression over the input row.
	Ts expr.Expr
	// EmitMillis is the emit interval; RetainMillis the window size.
	// For TUMBLE they are equal.
	EmitMillis   int64
	RetainMillis int64
	// AlignMillis shifts window boundaries (Listing 5's TIME '0:30').
	AlignMillis int64
}

// BoundAgg is one aggregate call of a grouped query.
type BoundAgg struct {
	// Fn is COUNT, SUM, MIN, MAX, AVG, START or END.
	Fn string
	// Arg is nil for COUNT(*) and for START/END (whose value comes from
	// window bounds).
	Arg      expr.Expr
	Distinct bool
	T        types.Type
}

// BoundAnalytic is one OVER-windowed analytic call (§3.7).
type BoundAnalytic struct {
	Fn  string
	Arg expr.Expr // nil for COUNT(*)
	// PartitionBy keys group sliding-window state.
	PartitionBy []expr.Expr
	// OrderBy is the timestamp expression ordering the window.
	OrderBy expr.Expr
	// IsRows selects tuple-count framing; otherwise RANGE time framing.
	IsRows bool
	// FrameMillis (RANGE) or FrameRows (ROWS) is the PRECEDING span;
	// Unbounded covers UNBOUNDED PRECEDING.
	FrameMillis int64
	FrameRows   int64
	Unbounded   bool
	T           types.Type
}

// JoinInfo captures a validated two-way join (§3.8).
type JoinInfo struct {
	Kind ast.JoinKind
	// On is the full join condition over the combined row.
	On expr.Expr
	// LeftKey/RightKey are the equi-join key expressions, each evaluated
	// over the combined row but referencing only its own side's columns.
	LeftKey, RightKey expr.Expr
	// WindowMillis bounds a stream-stream join's time window; 0 for
	// stream-to-relation joins.
	WindowMillis int64
	// LeftTsIdx/RightTsIdx are combined-row indexes of each side's
	// timestamp column (-1 when absent).
	LeftTsIdx, RightTsIdx int
	// LeftRepartitionCol/RightRepartitionCol name the column a side must
	// be re-keyed by before the join when its equi-key differs from the
	// publisher's partition key (§7 future work 1); empty = co-partitioned.
	LeftRepartitionCol, RightRepartitionCol string
}

// BoundSelect is a fully validated SELECT.
type BoundSelect struct {
	Scope     *Scope
	Join      *JoinInfo
	Where     expr.Expr
	GroupKeys []expr.Expr
	Window    *GroupWindow
	Aggs      []*BoundAgg
	Having    expr.Expr
	Analytics []*BoundAnalytic
	// Projs are the output expressions. For grouped queries they read the
	// group-output row [keys..., aggs...]; for analytic queries the
	// extended row [input..., analytics...]; otherwise the input row.
	Projs       []expr.Expr
	OutputNames []string
	Output      *types.RowType
	Streaming   bool
	Distinct    bool
	// TimestampIdx is the output timestamp column (-1 if none).
	TimestampIdx int
}

// Grouped reports whether the query aggregates.
func (b *BoundSelect) Grouped() bool {
	return len(b.GroupKeys) > 0 || b.Window != nil || len(b.Aggs) > 0
}

// Result is the outcome of validation.
type Result struct {
	Root *BoundSelect
	// View is set when the statement was CREATE VIEW.
	View *ast.CreateViewStmt
	// InsertTarget is set when the statement was INSERT INTO.
	InsertTarget string
	Warnings     []string
}

// Validator validates statements against a catalog.
type Validator struct {
	Catalog *catalog.Catalog
}

// New returns a validator over cat.
func New(cat *catalog.Catalog) *Validator { return &Validator{Catalog: cat} }

// Validate checks a statement and returns its bound form.
func (v *Validator) Validate(stmt ast.Statement) (*Result, error) {
	res := &Result{}
	switch s := stmt.(type) {
	case *ast.SelectStmt:
		b, err := v.validateSelect(s, res, true)
		if err != nil {
			return nil, err
		}
		res.Root = b
	case *ast.CreateViewStmt:
		b, err := v.validateSelect(s.Select, res, false)
		if err != nil {
			return nil, err
		}
		if len(s.Columns) > 0 {
			if len(s.Columns) != b.Output.Arity() {
				return nil, fmt.Errorf("validate: view %q declares %d columns, query produces %d",
					s.Name, len(s.Columns), b.Output.Arity())
			}
			cols := make([]types.Column, b.Output.Arity())
			for i, name := range s.Columns {
				cols[i] = types.Column{Name: name, Type: b.Output.Columns[i].Type}
			}
			b.Output = types.NewRowType(cols...)
			b.OutputNames = append([]string(nil), s.Columns...)
		}
		res.Root = b
		res.View = s
	case *ast.InsertStmt:
		b, err := v.validateSelect(s.Select, res, true)
		if err != nil {
			return nil, err
		}
		if target, err := v.Catalog.Resolve(s.Target); err == nil {
			if target.Row != nil && target.Row.Arity() != b.Output.Arity() {
				return nil, fmt.Errorf("validate: INSERT target %q has %d columns, query produces %d",
					s.Target, target.Row.Arity(), b.Output.Arity())
			}
		}
		res.Root = b
		res.InsertTarget = s.Target
	default:
		return nil, fmt.Errorf("validate: unsupported statement %T", stmt)
	}
	return res, nil
}

// validateSelect checks one SELECT. top indicates a top-level query, where
// the STREAM keyword decides execution mode; in subqueries and views STREAM
// is discarded (§3.3).
func (v *Validator) validateSelect(sel *ast.SelectStmt, res *Result, top bool) (*BoundSelect, error) {
	if sel.From == nil {
		return nil, fmt.Errorf("validate: SELECT requires a FROM clause")
	}
	b := &BoundSelect{TimestampIdx: -1}

	scope, join, err := v.bindFrom(sel.From, res)
	if err != nil {
		return nil, err
	}
	b.Scope = scope
	b.Join = join

	anyStream := false
	for _, r := range scope.Rels {
		if r.IsStream {
			anyStream = true
		}
	}
	if top && sel.Stream {
		if !anyStream {
			return nil, fmt.Errorf("validate: SELECT STREAM requires at least one stream input")
		}
		b.Streaming = true
	}
	if !top && sel.Stream {
		res.Warnings = append(res.Warnings,
			"STREAM keyword inside a sub-query or view has no effect and was discarded")
	}

	inputBinder := &binder{scope: scope}

	if sel.Where != nil {
		w, err := inputBinder.bind(sel.Where)
		if err != nil {
			return nil, fmt.Errorf("validate: WHERE: %w", err)
		}
		if err := requireBoolean(w, "WHERE"); err != nil {
			return nil, err
		}
		if containsAggregateAST(sel.Where) {
			return nil, fmt.Errorf("validate: aggregates are not allowed in WHERE (use HAVING)")
		}
		b.Where = w
	}

	// GROUP BY: split window functions from plain keys.
	for _, g := range sel.GroupBy {
		if fc, ok := g.(*ast.FuncCall); ok && (fc.Name == "HOP" || fc.Name == "TUMBLE") {
			if b.Window != nil {
				return nil, fmt.Errorf("validate: at most one HOP/TUMBLE per GROUP BY")
			}
			win, err := v.bindGroupWindow(fc, inputBinder)
			if err != nil {
				return nil, err
			}
			b.Window = win
			continue
		}
		ge, err := inputBinder.bind(g)
		if err != nil {
			return nil, fmt.Errorf("validate: GROUP BY: %w", err)
		}
		b.GroupKeys = append(b.GroupKeys, ge)
	}

	// Detect aggregation: explicit GROUP BY, or aggregate calls in the
	// select list / HAVING without grouping (implicit single group).
	hasAggCalls := sel.Having != nil && containsAggregateAST(sel.Having)
	for _, it := range sel.Items {
		if !it.Star && containsAggregateAST(it.Expr) {
			hasAggCalls = true
		}
	}
	grouped := len(sel.GroupBy) > 0 || hasAggCalls

	// Analytic functions (OVER) cannot mix with grouping in one SELECT.
	hasAnalytics := false
	for _, it := range sel.Items {
		if !it.Star && containsAnalyticAST(it.Expr) {
			hasAnalytics = true
		}
	}
	if hasAnalytics && grouped {
		return nil, fmt.Errorf("validate: analytic functions cannot be combined with GROUP BY in one query block")
	}

	switch {
	case grouped:
		if err := v.bindGroupedOutputs(sel, b, inputBinder); err != nil {
			return nil, err
		}
	case hasAnalytics:
		if err := v.bindAnalyticOutputs(sel, b, inputBinder); err != nil {
			return nil, err
		}
	default:
		if sel.Having != nil {
			return nil, fmt.Errorf("validate: HAVING requires aggregation")
		}
		if err := v.bindSimpleOutputs(sel, b, inputBinder); err != nil {
			return nil, err
		}
	}
	b.Distinct = sel.Distinct
	if b.Distinct && b.Streaming {
		return nil, fmt.Errorf("validate: SELECT DISTINCT is not supported on streaming queries")
	}

	// Timestamp tracking (§7 item 2): first output column of TIMESTAMP type.
	for i, c := range b.Output.Columns {
		if c.Type == types.Timestamp {
			b.TimestampIdx = i
			break
		}
	}
	if b.Streaming && b.TimestampIdx < 0 {
		res.Warnings = append(res.Warnings,
			"derived stream has no timestamp column; time-based window queries on it will be rejected")
	}
	return b, nil
}

// bindFrom resolves the FROM clause into a scope (and join info for two-way
// joins).
func (v *Validator) bindFrom(from ast.TableRef, res *Result) (*Scope, *JoinInfo, error) {
	switch f := from.(type) {
	case *ast.TableName:
		rel, err := v.bindTableName(f, res)
		if err != nil {
			return nil, nil, err
		}
		return &Scope{Rels: []*Relation{rel}}, nil, nil
	case *ast.SubqueryRef:
		sub, err := v.validateSelect(f.Select, res, false)
		if err != nil {
			return nil, nil, err
		}
		alias := f.Alias
		rel := &Relation{
			Alias:        alias,
			Sub:          sub,
			Row:          sub.Output,
			IsStream:     subIsStream(sub),
			TimestampIdx: sub.TimestampIdx,
		}
		return &Scope{Rels: []*Relation{rel}}, nil, nil
	case *ast.JoinRef:
		return v.bindJoin(f, res)
	default:
		return nil, nil, fmt.Errorf("validate: unsupported FROM clause %T", from)
	}
}

func subIsStream(b *BoundSelect) bool {
	for _, r := range b.Scope.Rels {
		if r.IsStream {
			return true
		}
	}
	return false
}

func (v *Validator) bindTableName(f *ast.TableName, res *Result) (*Relation, error) {
	obj, err := v.Catalog.Resolve(f.Name)
	if err != nil {
		return nil, err
	}
	alias := f.Alias
	if alias == "" {
		alias = f.Name
	}
	if obj.Kind == catalog.View {
		sub, err := v.validateSelect(obj.Def, res, false)
		if err != nil {
			return nil, fmt.Errorf("validate: expanding view %q: %w", obj.Name, err)
		}
		if obj.Row != nil && obj.Row.Arity() == sub.Output.Arity() {
			// Apply the view's declared column names.
			sub.Output = obj.Row
		}
		return &Relation{
			Alias:        alias,
			Sub:          sub,
			Row:          sub.Output,
			IsStream:     subIsStream(sub),
			TimestampIdx: sub.TimestampIdx,
		}, nil
	}
	tsIdx := -1
	if obj.TimestampCol != "" {
		tsIdx = obj.Row.Index(obj.TimestampCol)
	}
	return &Relation{
		Alias:        alias,
		Object:       obj,
		Row:          obj.Row,
		IsStream:     obj.Kind == catalog.Stream,
		TimestampIdx: tsIdx,
	}, nil
}

func (v *Validator) bindJoin(j *ast.JoinRef, res *Result) (*Scope, *JoinInfo, error) {
	if _, nested := j.Left.(*ast.JoinRef); nested {
		return nil, nil, fmt.Errorf("validate: only two-way joins are supported; chain jobs for multi-way joins")
	}
	leftScope, _, err := v.bindFrom(j.Left, res)
	if err != nil {
		return nil, nil, err
	}
	rightScope, _, err := v.bindFrom(j.Right, res)
	if err != nil {
		return nil, nil, err
	}
	left := leftScope.Rels[0]
	right := rightScope.Rels[0]
	right.Offset = left.Row.Arity()
	scope := &Scope{Rels: []*Relation{left, right}}

	if !left.IsStream && !right.IsStream {
		// Pure relation-to-relation joins execute in table mode only.
		if j.Kind != ast.InnerJoin {
			return nil, nil, fmt.Errorf("validate: outer relation-to-relation joins are not supported")
		}
	}
	if j.Kind != ast.InnerJoin {
		return nil, nil, fmt.Errorf("validate: only INNER joins are supported in this version")
	}

	jb := &binder{scope: scope}
	on, err := jb.bind(j.On)
	if err != nil {
		return nil, nil, fmt.Errorf("validate: JOIN ON: %w", err)
	}
	if err := requireBoolean(on, "JOIN ON"); err != nil {
		return nil, nil, err
	}

	info := &JoinInfo{Kind: j.Kind, On: on, LeftTsIdx: -1, RightTsIdx: -1}
	if left.TimestampIdx >= 0 {
		info.LeftTsIdx = left.Offset + left.TimestampIdx
	}
	if right.TimestampIdx >= 0 {
		info.RightTsIdx = right.Offset + right.TimestampIdx
	}

	// Extract the equi-join key from the ON conjuncts.
	lk, rk := v.extractEquiKey(j.On, scope, left, right)
	info.LeftKey, info.RightKey = lk, rk

	// Extract a BETWEEN time window for stream-stream joins (Listing 7).
	info.WindowMillis = extractJoinWindow(j.On, left, right)

	// Repartitioning (§7 future work 1): a stream side whose equi-key is
	// not the publisher's partition key must be re-keyed through an
	// intermediate stream so matching keys land in the same task.
	if info.LeftKey != nil {
		col, need, err := repartitionNeed(left, info.LeftKey)
		if err != nil {
			return nil, nil, err
		}
		if need {
			info.LeftRepartitionCol = col
		}
		col, need, err = repartitionNeed(right, info.RightKey)
		if err != nil {
			return nil, nil, err
		}
		if need {
			info.RightRepartitionCol = col
		}
	}

	if left.IsStream && right.IsStream {
		if info.LeftKey == nil {
			return nil, nil, fmt.Errorf("validate: stream-to-stream joins require an equality condition on a partitioning key")
		}
		if info.WindowMillis <= 0 {
			return nil, nil, fmt.Errorf("validate: stream-to-stream joins require a time window condition (ts BETWEEN ts - INTERVAL AND ts + INTERVAL)")
		}
		if info.LeftTsIdx < 0 || info.RightTsIdx < 0 {
			return nil, nil, fmt.Errorf("validate: stream-to-stream joins require timestamp columns on both inputs")
		}
	} else if left.IsStream != right.IsStream {
		// Stream-to-relation join (§3.8.2, §4.4).
		if info.LeftKey == nil {
			return nil, nil, fmt.Errorf("validate: stream-to-relation joins require an equality condition")
		}
		relSide := right
		if right.IsStream {
			relSide = left
		}
		if relSide.Object == nil || relSide.Object.Kind != catalog.Table {
			return nil, nil, fmt.Errorf("validate: the relation side of a stream-to-relation join must be a base table with a changelog")
		}
	}
	return scope, info, nil
}

// repartitionNeed decides whether rel must be re-keyed for the join. It
// returns the column to re-key by (the equi-key column within rel). Sides
// with unknown publisher keys are assumed co-partitioned, matching the
// prototype's behavior before this extension.
func repartitionNeed(rel *Relation, key expr.Expr) (string, bool, error) {
	if rel.Object == nil || rel.Object.PartitionKeyCol == "" {
		return "", false, nil
	}
	c, isCol := key.(*expr.ColRef)
	localIdx := -1
	if isCol {
		localIdx = c.Idx - rel.Offset
	}
	partIdx := rel.Row.Index(rel.Object.PartitionKeyCol)
	if isCol && localIdx == partIdx {
		return "", false, nil // already partitioned by the join key
	}
	if rel.Object.Kind == catalog.Table {
		return "", false, fmt.Errorf(
			"validate: relation %q is keyed by %q but the join uses a different key; changelog streams must be partitioned like the stream they join (§4.4)",
			rel.Object.Name, rel.Object.PartitionKeyCol)
	}
	if !isCol || localIdx < 0 || localIdx >= rel.Row.Arity() {
		return "", false, fmt.Errorf(
			"validate: stream %q needs repartitioning by a computed join key, which is not supported; join on a plain column",
			rel.Object.Name)
	}
	return rel.Row.Columns[localIdx].Name, true, nil
}

// extractEquiKey finds a conjunct `a = b` with a referencing only the left
// relation and b only the right (or swapped), returning bound key
// expressions over the combined row.
func (v *Validator) extractEquiKey(on ast.Expr, scope *Scope, left, right *Relation) (expr.Expr, expr.Expr) {
	for _, conj := range conjuncts(on) {
		eq, ok := conj.(*ast.Binary)
		if !ok || eq.Op != ast.OpEq {
			continue
		}
		b := &binder{scope: scope}
		le, err1 := b.bind(eq.L)
		re, err2 := b.bind(eq.R)
		if err1 != nil || err2 != nil {
			continue
		}
		lRefs := colRefRange(le)
		rRefs := colRefRange(re)
		split := right.Offset
		switch {
		case lRefs.onlyBelow(split) && rRefs.onlyAtOrAbove(split):
			return le, re
		case rRefs.onlyBelow(split) && lRefs.onlyAtOrAbove(split):
			return re, le
		}
	}
	return nil, nil
}

// extractJoinWindow looks for `X.ts BETWEEN Y.ts - INTERVAL AND Y.ts +
// INTERVAL` and returns the wider bound in millis (0 when absent).
func extractJoinWindow(on ast.Expr, left, right *Relation) int64 {
	for _, conj := range conjuncts(on) {
		bt, ok := conj.(*ast.Between)
		if !ok || bt.Not {
			continue
		}
		loIv := intervalOffset(bt.Lo)
		hiIv := intervalOffset(bt.Hi)
		if loIv == 0 && hiIv == 0 {
			continue
		}
		w := loIv
		if hiIv > w {
			w = hiIv
		}
		if w > 0 {
			return w
		}
	}
	return 0
}

// intervalOffset returns the interval magnitude of `expr ± INTERVAL`, or 0.
func intervalOffset(e ast.Expr) int64 {
	b, ok := e.(*ast.Binary)
	if !ok || (b.Op != ast.OpAdd && b.Op != ast.OpSub) {
		return 0
	}
	if iv, ok := b.R.(*ast.IntervalLit); ok {
		return iv.Millis
	}
	return 0
}

// conjuncts flattens a tree of ANDs.
func conjuncts(e ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// refRange tracks which combined-row columns an expression touches.
type refRange struct {
	min, max int
	any      bool
}

func colRefRange(e expr.Expr) refRange {
	r := refRange{min: 1 << 30, max: -1}
	walkExpr(e, func(x expr.Expr) {
		if c, ok := x.(*expr.ColRef); ok {
			r.any = true
			if c.Idx < r.min {
				r.min = c.Idx
			}
			if c.Idx > r.max {
				r.max = c.Idx
			}
		}
	})
	return r
}

func (r refRange) onlyBelow(split int) bool     { return r.any && r.max < split }
func (r refRange) onlyAtOrAbove(split int) bool { return r.any && r.min >= split }

// walkExpr visits every node of a bound expression.
func walkExpr(e expr.Expr, fn func(expr.Expr)) {
	fn(e)
	switch n := e.(type) {
	case *expr.Binary:
		walkExpr(n.L, fn)
		walkExpr(n.R, fn)
	case *expr.Not:
		walkExpr(n.X, fn)
	case *expr.Neg:
		walkExpr(n.X, fn)
	case *expr.IsNull:
		walkExpr(n.X, fn)
	case *expr.Case:
		for _, w := range n.Whens {
			walkExpr(w.When, fn)
			walkExpr(w.Then, fn)
		}
		if n.Else != nil {
			walkExpr(n.Else, fn)
		}
	case *expr.Like:
		walkExpr(n.X, fn)
		walkExpr(n.Pattern, fn)
	case *expr.InList:
		walkExpr(n.X, fn)
		for _, i := range n.List {
			walkExpr(i, fn)
		}
	case *expr.Cast:
		walkExpr(n.X, fn)
	case *expr.Call:
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *expr.FloorTime:
		walkExpr(n.X, fn)
	}
}

// containsAggregateAST reports whether e contains a non-analytic aggregate
// call.
func containsAggregateAST(e ast.Expr) bool {
	found := false
	walkAST(e, func(x ast.Expr) {
		if fc, ok := x.(*ast.FuncCall); ok && fc.Over == nil && IsAggregate(fc.Name) {
			found = true
		}
	})
	return found
}

// containsAnalyticAST reports whether e contains an OVER call.
func containsAnalyticAST(e ast.Expr) bool {
	found := false
	walkAST(e, func(x ast.Expr) {
		if fc, ok := x.(*ast.FuncCall); ok && fc.Over != nil {
			found = true
		}
	})
	return found
}

// walkAST visits expression nodes (not descending into subqueries).
func walkAST(e ast.Expr, fn func(ast.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *ast.Binary:
		walkAST(n.L, fn)
		walkAST(n.R, fn)
	case *ast.Unary:
		walkAST(n.X, fn)
	case *ast.Between:
		walkAST(n.X, fn)
		walkAST(n.Lo, fn)
		walkAST(n.Hi, fn)
	case *ast.InList:
		walkAST(n.X, fn)
		for _, i := range n.List {
			walkAST(i, fn)
		}
	case *ast.IsNull:
		walkAST(n.X, fn)
	case *ast.Like:
		walkAST(n.X, fn)
		walkAST(n.Pattern, fn)
	case *ast.Case:
		walkAST(n.Operand, fn)
		for _, w := range n.Whens {
			walkAST(w.When, fn)
			walkAST(w.Then, fn)
		}
		walkAST(n.Else, fn)
	case *ast.Cast:
		walkAST(n.X, fn)
	case *ast.FloorTo:
		walkAST(n.X, fn)
	case *ast.FuncCall:
		for _, a := range n.Args {
			walkAST(a, fn)
		}
		if n.Over != nil {
			for _, p := range n.Over.PartitionBy {
				walkAST(p, fn)
			}
			for _, o := range n.Over.OrderBy {
				walkAST(o, fn)
			}
		}
	}
}

// bindGroupWindow validates HOP(ts, emit[, retain[, align]]) / TUMBLE(ts,
// size).
func (v *Validator) bindGroupWindow(fc *ast.FuncCall, b *binder) (*GroupWindow, error) {
	w := &GroupWindow{}
	switch fc.Name {
	case "TUMBLE":
		if len(fc.Args) != 2 {
			return nil, fmt.Errorf("validate: TUMBLE(ts, size) takes 2 arguments, got %d", len(fc.Args))
		}
		w.Kind = WindowTumble
	case "HOP":
		if len(fc.Args) < 2 || len(fc.Args) > 4 {
			return nil, fmt.Errorf("validate: HOP(ts, emit[, retain[, align]]) takes 2-4 arguments, got %d", len(fc.Args))
		}
		w.Kind = WindowHop
	}
	ts, err := b.bind(fc.Args[0])
	if err != nil {
		return nil, fmt.Errorf("validate: %s timestamp: %w", fc.Name, err)
	}
	if ts.Type() != types.Timestamp {
		return nil, fmt.Errorf("validate: %s requires a TIMESTAMP column, got %s (queries over derived streams need a preserved timestamp)", fc.Name, ts.Type())
	}
	w.Ts = ts
	iv, ok := fc.Args[1].(*ast.IntervalLit)
	if !ok {
		return nil, fmt.Errorf("validate: %s interval must be an INTERVAL literal", fc.Name)
	}
	w.EmitMillis = iv.Millis
	w.RetainMillis = iv.Millis
	if len(fc.Args) >= 3 {
		riv, ok := fc.Args[2].(*ast.IntervalLit)
		if !ok {
			return nil, fmt.Errorf("validate: HOP retain must be an INTERVAL literal")
		}
		w.RetainMillis = riv.Millis
	}
	if len(fc.Args) == 4 {
		al, ok := fc.Args[3].(*ast.TimeLit)
		if !ok {
			return nil, fmt.Errorf("validate: HOP alignment must be a TIME literal")
		}
		w.AlignMillis = al.Millis
	}
	if w.EmitMillis <= 0 || w.RetainMillis <= 0 {
		return nil, fmt.Errorf("validate: window intervals must be positive")
	}
	return w, nil
}

// --- output binding: simple / grouped / analytic ---

func (v *Validator) bindSimpleOutputs(sel *ast.SelectStmt, b *BoundSelect, ib *binder) error {
	for _, it := range sel.Items {
		if it.Star {
			if err := expandStar(it, b.Scope, &b.Projs, &b.OutputNames); err != nil {
				return err
			}
			continue
		}
		e, err := ib.bind(it.Expr)
		if err != nil {
			return fmt.Errorf("validate: select list: %w", err)
		}
		b.Projs = append(b.Projs, e)
		b.OutputNames = append(b.OutputNames, outputName(it, len(b.OutputNames)))
	}
	b.Output = outputRowType(b.Projs, b.OutputNames)
	return nil
}

func expandStar(it ast.SelectItem, scope *Scope, projs *[]expr.Expr, names *[]string) error {
	matched := false
	for _, r := range scope.Rels {
		if it.StarTable != "" && !equalFold(r.Alias, it.StarTable) {
			continue
		}
		matched = true
		for i, c := range r.Row.Columns {
			*projs = append(*projs, &expr.ColRef{Idx: r.Offset + i, Name: c.Name, T: c.Type})
			*names = append(*names, c.Name)
		}
	}
	if !matched {
		return fmt.Errorf("validate: unknown table %q in %s.*", it.StarTable, it.StarTable)
	}
	return nil
}

func outputName(it ast.SelectItem, idx int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if id, ok := it.Expr.(*ast.Ident); ok {
		return id.Column()
	}
	if f, ok := it.Expr.(*ast.FloorTo); ok {
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Column()
		}
	}
	return fmt.Sprintf("EXPR$%d", idx)
}

func outputRowType(projs []expr.Expr, names []string) *types.RowType {
	cols := make([]types.Column, len(projs))
	for i := range projs {
		cols[i] = types.Column{Name: names[i], Type: projs[i].Type()}
	}
	return types.NewRowType(cols...)
}

// bindGroupedOutputs rewrites select items and HAVING over the group-output
// row [keys..., aggs...].
func (v *Validator) bindGroupedOutputs(sel *ast.SelectStmt, b *BoundSelect, ib *binder) error {
	g := &groupRewriter{v: v, b: b, ib: ib}
	// Pre-compute bound forms of group keys for matching.
	for _, k := range b.GroupKeys {
		g.keyStrs = append(g.keyStrs, k.String())
	}
	for _, it := range sel.Items {
		if it.Star {
			return fmt.Errorf("validate: * is not allowed with GROUP BY")
		}
		e, err := g.rewrite(it.Expr)
		if err != nil {
			return err
		}
		b.Projs = append(b.Projs, e)
		b.OutputNames = append(b.OutputNames, outputName(it, len(b.OutputNames)))
	}
	if sel.Having != nil {
		h, err := g.rewrite(sel.Having)
		if err != nil {
			return fmt.Errorf("validate: HAVING: %w", err)
		}
		if err := requireBoolean(h, "HAVING"); err != nil {
			return err
		}
		b.Having = h
	}
	b.Output = outputRowType(b.Projs, b.OutputNames)
	return nil
}

// groupRewriter lowers expressions of a grouped query to reads over the
// group-output row.
type groupRewriter struct {
	v       *Validator
	b       *BoundSelect
	ib      *binder
	keyStrs []string
}

func (g *groupRewriter) rewrite(e ast.Expr) (expr.Expr, error) {
	// Aggregate call: register it, read its slot.
	if fc, ok := e.(*ast.FuncCall); ok && fc.Over == nil && IsAggregate(fc.Name) {
		return g.addAgg(fc)
	}
	// Expression over grouped columns: matches a GROUP BY key?
	if be, err := g.ib.bind(e); err == nil {
		s := be.String()
		for i, ks := range g.keyStrs {
			if s == ks {
				return &expr.ColRef{Idx: i, Name: fmt.Sprintf("$key%d", i), T: g.b.GroupKeys[i].Type()}, nil
			}
		}
		if !colRefRange(be).any {
			return be, nil // constant expression
		}
	}
	// Composite: rewrite children through the same rules.
	switch n := e.(type) {
	case *ast.Binary:
		l, err := g.rewrite(n.L)
		if err != nil {
			return nil, err
		}
		r, err := g.rewrite(n.R)
		if err != nil {
			return nil, err
		}
		return typedBinary(n.Op, l, r)
	case *ast.Unary:
		x, err := g.rewrite(n.X)
		if err != nil {
			return nil, err
		}
		if n.Op == ast.OpNot {
			return &expr.Not{X: x}, nil
		}
		return &expr.Neg{X: x}, nil
	case *ast.Case:
		out := &expr.Case{}
		t := types.Null
		for _, w := range n.Whens {
			var when ast.Expr = w.When
			if n.Operand != nil {
				when = &ast.Binary{Op: ast.OpEq, L: n.Operand, R: w.When}
			}
			we, err := g.rewrite(when)
			if err != nil {
				return nil, err
			}
			te, err := g.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			var terr error
			t, terr = types.Common(t, te.Type())
			if terr != nil {
				return nil, terr
			}
			out.Whens = append(out.Whens, expr.CaseWhen{When: we, Then: te})
		}
		if n.Else != nil {
			ee, err := g.rewrite(n.Else)
			if err != nil {
				return nil, err
			}
			var terr error
			t, terr = types.Common(t, ee.Type())
			if terr != nil {
				return nil, terr
			}
			out.Else = ee
		}
		out.T = t
		return out, nil
	case *ast.FuncCall:
		args := make([]expr.Expr, len(n.Args))
		argTypes := make([]types.Type, len(n.Args))
		fn, ok := expr.Builtins[n.Name]
		if !ok {
			return nil, fmt.Errorf("validate: unknown function %s", n.Name)
		}
		for i, a := range n.Args {
			ae, err := g.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = ae
			argTypes[i] = ae.Type()
		}
		rt, err := fn.ResultType(argTypes)
		if err != nil {
			return nil, err
		}
		return &expr.Call{Fn: n.Name, Args: args, T: rt}, nil
	case *ast.Cast:
		x, err := g.rewrite(n.X)
		if err != nil {
			return nil, err
		}
		t, err := types.ByName(n.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{X: x, T: t}, nil
	case *ast.IsNull:
		x, err := g.rewrite(n.X)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Not: n.Not, X: x}, nil
	default:
		return nil, fmt.Errorf("validate: expression %s must appear in GROUP BY or inside an aggregate", e)
	}
}

func typedBinary(op ast.BinaryOp, l, r expr.Expr) (expr.Expr, error) {
	bop := binOpFor(op)
	switch {
	case op.Logical(), op.Comparison():
		return &expr.Binary{Op: bop, L: l, R: r, T: types.Boolean}, nil
	case op == ast.OpConcat:
		return &expr.Binary{Op: bop, L: l, R: r, T: types.Varchar}, nil
	default:
		t, err := types.Common(l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: bop, L: l, R: r, T: t}, nil
	}
}

// addAgg registers an aggregate call, returning a read of its group-output
// slot.
func (g *groupRewriter) addAgg(fc *ast.FuncCall) (expr.Expr, error) {
	agg := &BoundAgg{Fn: fc.Name, Distinct: fc.Distinct}
	switch fc.Name {
	case "COUNT":
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, fmt.Errorf("validate: COUNT takes one argument")
			}
			a, err := g.ib.bind(fc.Args[0])
			if err != nil {
				return nil, err
			}
			agg.Arg = a
		}
		agg.T = types.Bigint
	case "SUM", "MIN", "MAX", "AVG":
		if fc.Star || len(fc.Args) != 1 {
			return nil, fmt.Errorf("validate: %s takes one argument", fc.Name)
		}
		a, err := g.ib.bind(fc.Args[0])
		if err != nil {
			return nil, err
		}
		if !a.Type().Numeric() && !(fc.Name == "MIN" || fc.Name == "MAX") {
			return nil, fmt.Errorf("validate: %s requires a numeric argument, got %s", fc.Name, a.Type())
		}
		agg.Arg = a
		if fc.Name == "AVG" {
			agg.T = types.Double
		} else {
			agg.T = a.Type()
		}
	case "START", "END":
		// Window-bound aggregates (§3.6): value comes from the window.
		if g.b.Window == nil {
			return nil, fmt.Errorf("validate: %s requires a HOP or TUMBLE window", fc.Name)
		}
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("validate: %s takes the timestamp column", fc.Name)
		}
		agg.T = types.Timestamp
	default:
		// User-defined aggregate (§7 future work 4).
		u, ok := udf.LookupAggregate(fc.Name)
		if !ok {
			return nil, fmt.Errorf("validate: unknown aggregate %s", fc.Name)
		}
		if fc.Star || len(fc.Args) != 1 {
			return nil, fmt.Errorf("validate: %s takes one argument", fc.Name)
		}
		a, err := g.ib.bind(fc.Args[0])
		if err != nil {
			return nil, err
		}
		agg.Arg = a
		agg.T, err = u.ResultType(a.Type())
		if err != nil {
			return nil, fmt.Errorf("validate: %s: %v", fc.Name, err)
		}
	}
	// Reuse identical aggregates.
	for i, existing := range g.b.Aggs {
		if sameAgg(existing, agg) {
			return &expr.ColRef{Idx: len(g.b.GroupKeys) + i, Name: fmt.Sprintf("$agg%d", i), T: existing.T}, nil
		}
	}
	g.b.Aggs = append(g.b.Aggs, agg)
	idx := len(g.b.GroupKeys) + len(g.b.Aggs) - 1
	return &expr.ColRef{Idx: idx, Name: fmt.Sprintf("$agg%d", len(g.b.Aggs)-1), T: agg.T}, nil
}

func sameAgg(a, b *BoundAgg) bool {
	if a.Fn != b.Fn || a.Distinct != b.Distinct || a.T != b.T {
		return false
	}
	switch {
	case a.Arg == nil && b.Arg == nil:
		return true
	case a.Arg == nil || b.Arg == nil:
		return false
	default:
		return a.Arg.String() == b.Arg.String()
	}
}

// bindAnalyticOutputs handles OVER-window queries: the extended row is
// [input columns..., analytic values...].
func (v *Validator) bindAnalyticOutputs(sel *ast.SelectStmt, b *BoundSelect, ib *binder) error {
	inputArity := b.Scope.Combined().Arity()
	rewrite := func(e ast.Expr) (expr.Expr, error) {
		return v.rewriteAnalytic(e, b, ib, inputArity)
	}
	for _, it := range sel.Items {
		if it.Star {
			if err := expandStar(it, b.Scope, &b.Projs, &b.OutputNames); err != nil {
				return err
			}
			continue
		}
		e, err := rewrite(it.Expr)
		if err != nil {
			return err
		}
		b.Projs = append(b.Projs, e)
		b.OutputNames = append(b.OutputNames, outputName(it, len(b.OutputNames)))
	}
	b.Output = outputRowType(b.Projs, b.OutputNames)
	return nil
}

// rewriteAnalytic replaces OVER calls with reads of extended-row slots and
// binds everything else over the input scope.
func (v *Validator) rewriteAnalytic(e ast.Expr, b *BoundSelect, ib *binder, inputArity int) (expr.Expr, error) {
	if fc, ok := e.(*ast.FuncCall); ok && fc.Over != nil {
		an, err := v.bindAnalytic(fc, b, ib)
		if err != nil {
			return nil, err
		}
		for i, existing := range b.Analytics {
			if existing == an {
				return &expr.ColRef{Idx: inputArity + i, Name: fmt.Sprintf("$win%d", i), T: an.T}, nil
			}
		}
		return nil, fmt.Errorf("validate: internal: analytic not registered")
	}
	if !containsAnalyticAST(e) {
		return ib.bind(e)
	}
	// Composite containing an analytic call somewhere below.
	switch n := e.(type) {
	case *ast.Binary:
		l, err := v.rewriteAnalytic(n.L, b, ib, inputArity)
		if err != nil {
			return nil, err
		}
		r, err := v.rewriteAnalytic(n.R, b, ib, inputArity)
		if err != nil {
			return nil, err
		}
		return typedBinary(n.Op, l, r)
	case *ast.Unary:
		x, err := v.rewriteAnalytic(n.X, b, ib, inputArity)
		if err != nil {
			return nil, err
		}
		if n.Op == ast.OpNot {
			return &expr.Not{X: x}, nil
		}
		return &expr.Neg{X: x}, nil
	default:
		return nil, fmt.Errorf("validate: unsupported analytic expression shape %T", e)
	}
}

func (v *Validator) bindAnalytic(fc *ast.FuncCall, b *BoundSelect, ib *binder) (*BoundAnalytic, error) {
	if !IsAggregate(fc.Name) || fc.Name == "START" || fc.Name == "END" {
		return nil, fmt.Errorf("validate: %s cannot be used as an analytic function", fc.Name)
	}
	an := &BoundAnalytic{Fn: fc.Name}
	if fc.Star {
		if fc.Name != "COUNT" {
			return nil, fmt.Errorf("validate: only COUNT(*) may use *")
		}
	} else {
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("validate: %s OVER takes one argument", fc.Name)
		}
		a, err := ib.bind(fc.Args[0])
		if err != nil {
			return nil, err
		}
		an.Arg = a
	}
	switch fc.Name {
	case "COUNT":
		an.T = types.Bigint
	case "AVG":
		an.T = types.Double
	case "SUM", "MIN", "MAX":
		an.T = an.Arg.Type()
	default:
		u, ok := udf.LookupAggregate(fc.Name)
		if !ok {
			return nil, fmt.Errorf("validate: unknown analytic function %s", fc.Name)
		}
		var err error
		an.T, err = u.ResultType(an.Arg.Type())
		if err != nil {
			return nil, fmt.Errorf("validate: %s: %v", fc.Name, err)
		}
	}
	for _, p := range fc.Over.PartitionBy {
		pe, err := ib.bind(p)
		if err != nil {
			return nil, fmt.Errorf("validate: PARTITION BY: %w", err)
		}
		an.PartitionBy = append(an.PartitionBy, pe)
	}
	if len(fc.Over.OrderBy) != 1 {
		return nil, fmt.Errorf("validate: analytic windows over streams require ORDER BY on the timestamp column")
	}
	ob, err := ib.bind(fc.Over.OrderBy[0])
	if err != nil {
		return nil, fmt.Errorf("validate: ORDER BY: %w", err)
	}
	an.OrderBy = ob
	frame := fc.Over.Frame
	if frame == nil {
		return nil, fmt.Errorf("validate: analytic windows over streams require an explicit RANGE or ROWS frame")
	}
	an.IsRows = frame.Unit == ast.FrameRows
	switch bound := frame.Preceding.(type) {
	case nil:
		an.Unbounded = true
	case *ast.IntervalLit:
		if an.IsRows {
			return nil, fmt.Errorf("validate: ROWS frames take a tuple count, not an interval")
		}
		an.FrameMillis = bound.Millis
	case *ast.NumberLit:
		if !an.IsRows {
			return nil, fmt.Errorf("validate: RANGE frames over streams take an INTERVAL bound")
		}
		if !bound.IsInt || bound.Int < 0 {
			return nil, fmt.Errorf("validate: ROWS bound must be a non-negative integer")
		}
		an.FrameRows = bound.Int
	default:
		return nil, fmt.Errorf("validate: unsupported frame bound %T", frame.Preceding)
	}
	if !an.IsRows && !an.Unbounded {
		if ob.Type() != types.Timestamp {
			return nil, fmt.Errorf("validate: RANGE frames require ORDER BY a TIMESTAMP column, got %s", ob.Type())
		}
	}
	b.Analytics = append(b.Analytics, an)
	return an, nil
}
