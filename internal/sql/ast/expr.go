package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is any SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Ident is a possibly qualified column reference: a, or t.a.
type Ident struct {
	// Parts are the dot-separated name components, e.g. ["Orders","units"].
	Parts []string
}

func (*Ident) exprNode() {}

func (i *Ident) String() string {
	parts := make([]string, len(i.Parts))
	for j, p := range i.Parts {
		parts[j] = QuoteIdent(p)
	}
	return strings.Join(parts, ".")
}

// Column returns the final name component.
func (i *Ident) Column() string { return i.Parts[len(i.Parts)-1] }

// Qualifier returns the table qualifier, or "".
func (i *Ident) Qualifier() string {
	if len(i.Parts) > 1 {
		return strings.Join(i.Parts[:len(i.Parts)-1], ".")
	}
	return ""
}

// NumberLit is an integer or floating-point literal.
type NumberLit struct {
	Text  string
	IsInt bool
	Int   int64
	Float float64
}

func (*NumberLit) exprNode() {}

func (n *NumberLit) String() string { return n.Text }

// NewIntLit builds an integer literal.
func NewIntLit(v int64) *NumberLit {
	return &NumberLit{Text: strconv.FormatInt(v, 10), IsInt: true, Int: v, Float: float64(v)}
}

// StringLit is a quoted string literal.
type StringLit struct {
	V string
}

func (*StringLit) exprNode() {}

func (s *StringLit) String() string {
	return "'" + strings.ReplaceAll(s.V, "'", "''") + "'"
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	V bool
}

func (*BoolLit) exprNode() {}

func (b *BoolLit) String() string {
	if b.V {
		return "TRUE"
	}
	return "FALSE"
}

// NullLit is NULL.
type NullLit struct{}

func (*NullLit) exprNode() {}

func (*NullLit) String() string { return "NULL" }

// TimeUnit is a calendar unit used in INTERVAL literals and FLOOR ... TO.
type TimeUnit int

// Units.
const (
	UnitYear TimeUnit = iota
	UnitMonth
	UnitDay
	UnitHour
	UnitMinute
	UnitSecond
)

func (u TimeUnit) String() string {
	switch u {
	case UnitYear:
		return "YEAR"
	case UnitMonth:
		return "MONTH"
	case UnitDay:
		return "DAY"
	case UnitHour:
		return "HOUR"
	case UnitMinute:
		return "MINUTE"
	default:
		return "SECOND"
	}
}

// Millis returns the unit length in milliseconds. Months and years use the
// SQL-standard fixed approximations only for window arithmetic (30/365 days).
func (u TimeUnit) Millis() int64 {
	switch u {
	case UnitSecond:
		return 1000
	case UnitMinute:
		return 60 * 1000
	case UnitHour:
		return 60 * 60 * 1000
	case UnitDay:
		return 24 * 60 * 60 * 1000
	case UnitMonth:
		return 30 * 24 * 60 * 60 * 1000
	default: // UnitYear
		return 365 * 24 * 60 * 60 * 1000
	}
}

// IntervalLit is INTERVAL 'v' UNIT or INTERVAL 'h:m' UNIT TO UNIT (§3.6).
// Millis is the resolved duration.
type IntervalLit struct {
	Text   string
	Unit   TimeUnit
	ToUnit *TimeUnit
	Millis int64
}

func (*IntervalLit) exprNode() {}

func (i *IntervalLit) String() string {
	if i.ToUnit != nil {
		return fmt.Sprintf("INTERVAL '%s' %s TO %s", i.Text, i.Unit, *i.ToUnit)
	}
	return fmt.Sprintf("INTERVAL '%s' %s", i.Text, i.Unit)
}

// TimeLit is TIME 'h:mm[:ss]', a time-of-day offset used as a window
// alignment (Listing 5). Millis is the offset from midnight.
type TimeLit struct {
	Text   string
	Millis int64
}

func (*TimeLit) exprNode() {}

func (t *TimeLit) String() string { return fmt.Sprintf("TIME '%s'", t.Text) }

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
	OpEq
	OpNeq
	OpLt
	OpLte
	OpGt
	OpGte
	OpAnd
	OpOr
)

var binaryOpNames = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpConcat: "||",
	OpEq:     "=", OpNeq: "<>", OpLt: "<", OpLte: "<=", OpGt: ">", OpGte: ">=",
	OpAnd: "AND", OpOr: "OR",
}

func (o BinaryOp) String() string { return binaryOpNames[o] }

// Comparison reports whether the operator yields a boolean from two
// comparable operands.
func (o BinaryOp) Comparison() bool { return o >= OpEq && o <= OpGte }

// Logical reports whether the operator is AND or OR.
func (o BinaryOp) Logical() bool { return o == OpAnd || o == OpOr }

// Binary is L op R.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

func (*Binary) exprNode() {}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNeg UnaryOp = iota
	OpNot
)

// Unary is op X.
type Unary struct {
	Op UnaryOp
	X  Expr
}

func (*Unary) exprNode() {}

func (u *Unary) String() string {
	if u.Op == OpNeg {
		return fmt.Sprintf("(-%s)", u.X)
	}
	return fmt.Sprintf("(NOT %s)", u.X)
}

// Between is X [NOT] BETWEEN Lo AND Hi — the paper expresses stream-stream
// join windows with this form (Listing 7).
type Between struct {
	Not    bool
	X      Expr
	Lo, Hi Expr
}

func (*Between) exprNode() {}

func (b *Between) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", b.X, not, b.Lo, b.Hi)
}

// InList is X [NOT] IN (e1, e2, ...).
type InList struct {
	Not  bool
	X    Expr
	List []Expr
}

func (*InList) exprNode() {}

func (i *InList) String() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.String()
	}
	not := ""
	if i.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", i.X, not, strings.Join(parts, ", "))
}

// IsNull is X IS [NOT] NULL.
type IsNull struct {
	Not bool
	X   Expr
}

func (*IsNull) exprNode() {}

func (i *IsNull) String() string {
	if i.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", i.X)
	}
	return fmt.Sprintf("(%s IS NULL)", i.X)
}

// Like is X [NOT] LIKE pattern.
type Like struct {
	Not     bool
	X       Expr
	Pattern Expr
}

func (*Like) exprNode() {}

func (l *Like) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sLIKE %s)", l.X, not, l.Pattern)
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	When Expr
	Then Expr
}

// Case is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

func (*Case) exprNode() {}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteString(" " + c.Operand.String())
	}
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.When, w.Then)
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// Cast is CAST(X AS type).
type Cast struct {
	X        Expr
	TypeName string
}

func (*Cast) exprNode() {}

func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.X, c.TypeName) }

// FloorTo is FLOOR(x TO unit), the paper's tumbling-window-by-truncation
// idiom (Listing 3).
type FloorTo struct {
	X    Expr
	Unit TimeUnit
}

func (*FloorTo) exprNode() {}

func (f *FloorTo) String() string { return fmt.Sprintf("FLOOR(%s TO %s)", f.X, f.Unit) }

// FrameUnit selects RANGE (value-based) or ROWS (count-based) framing.
type FrameUnit int

// Frame units.
const (
	FrameRange FrameUnit = iota
	FrameRows
)

// WindowFrame bounds an analytic function's window: the paper's sliding
// windows use RANGE INTERVAL 'n' unit PRECEDING (§3.7).
type WindowFrame struct {
	Unit FrameUnit
	// Preceding is the lower bound: an IntervalLit (RANGE) or NumberLit
	// (ROWS); nil means UNBOUNDED PRECEDING.
	Preceding Expr
}

func (f *WindowFrame) String() string {
	unit := "RANGE"
	if f.Unit == FrameRows {
		unit = "ROWS"
	}
	if f.Preceding == nil {
		return unit + " UNBOUNDED PRECEDING"
	}
	return fmt.Sprintf("%s %s PRECEDING", unit, f.Preceding)
}

// WindowSpec is an OVER (...) clause.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []Expr
	Frame       *WindowFrame
}

func (w *WindowSpec) String() string {
	var parts []string
	if len(w.PartitionBy) > 0 {
		ps := make([]string, len(w.PartitionBy))
		for i, e := range w.PartitionBy {
			ps[i] = e.String()
		}
		parts = append(parts, "PARTITION BY "+strings.Join(ps, ", "))
	}
	if len(w.OrderBy) > 0 {
		os := make([]string, len(w.OrderBy))
		for i, e := range w.OrderBy {
			os[i] = e.String()
		}
		parts = append(parts, "ORDER BY "+strings.Join(os, ", "))
	}
	if w.Frame != nil {
		parts = append(parts, w.Frame.String())
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// FuncCall is a scalar, aggregate or analytic function call. HOP and TUMBLE
// (§3.6) parse as FuncCalls and are interpreted by the validator when they
// appear in GROUP BY.
type FuncCall struct {
	// Name is upper-cased.
	Name string
	// Star is set for COUNT(*).
	Star     bool
	Distinct bool
	Args     []Expr
	// Over is non-nil for analytic calls.
	Over *WindowSpec
}

func (*FuncCall) exprNode() {}

func (f *FuncCall) String() string {
	var sb strings.Builder
	sb.WriteString(f.Name)
	sb.WriteString("(")
	if f.Star {
		sb.WriteString("*")
	} else {
		if f.Distinct {
			sb.WriteString("DISTINCT ")
		}
		for i, a := range f.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.String())
		}
	}
	sb.WriteString(")")
	if f.Over != nil {
		sb.WriteString(" OVER ")
		sb.WriteString(f.Over.String())
	}
	return sb.String()
}

// Subquery is a scalar or EXISTS subquery expression.
type Subquery struct {
	Exists bool
	Select *SelectStmt
}

func (*Subquery) exprNode() {}

func (s *Subquery) String() string {
	if s.Exists {
		return fmt.Sprintf("EXISTS (%s)", s.Select)
	}
	return fmt.Sprintf("(%s)", s.Select)
}
