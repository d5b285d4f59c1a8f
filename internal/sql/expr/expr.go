// Package expr defines SamzaSQL's bound expression IR and its compiler. The
// validator binds AST expressions against input row types into this IR; the
// physical operators compile IR into evaluator closures over tuples
// represented as []any arrays — the Go analog of the Janino/Linq4j code
// generation the paper uses (§4.2), operating on the same tuple-as-array
// representation that Figure 4's AvroToArray step produces.
package expr

import (
	"fmt"

	"samzasql/internal/sql/types"
)

// Expr is a bound (validated, typed, column-resolved) expression.
type Expr interface {
	// Type is the expression's result type.
	Type() types.Type
	fmt.Stringer
}

// ColRef reads column Idx of the input row.
type ColRef struct {
	Idx  int
	Name string
	T    types.Type
}

// Type implements Expr.
func (c *ColRef) Type() types.Type { return c.T }

func (c *ColRef) String() string { return fmt.Sprintf("$%d:%s", c.Idx, c.Name) }

// Const is a literal value: int64, float64, string, bool or nil.
type Const struct {
	V any
	T types.Type
}

// Type implements Expr.
func (c *Const) Type() types.Type { return c.T }

func (c *Const) String() string {
	if s, ok := c.V.(string); ok {
		return fmt.Sprintf("'%s'", s)
	}
	return fmt.Sprintf("%v", c.V)
}

// BinOp enumerates binary operations with SQL null semantics.
type BinOp int

// Binary operations.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	Concat
	Eq
	Neq
	Lt
	Lte
	Gt
	Gte
	And
	Or
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}

func (o BinOp) String() string { return binOpNames[o] }

// Binary applies Op to L and R.
type Binary struct {
	Op   BinOp
	L, R Expr
	T    types.Type
}

// Type implements Expr.
func (b *Binary) Type() types.Type { return b.T }

func (b *Binary) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// Not negates a boolean.
type Not struct {
	X Expr
}

// Type implements Expr.
func (*Not) Type() types.Type { return types.Boolean }

func (n *Not) String() string { return fmt.Sprintf("NOT %s", n.X) }

// Neg negates a number.
type Neg struct {
	X Expr
}

// Type implements Expr.
func (n *Neg) Type() types.Type { return n.X.Type() }

func (n *Neg) String() string { return fmt.Sprintf("-%s", n.X) }

// IsNull tests for SQL NULL.
type IsNull struct {
	Not bool
	X   Expr
}

// Type implements Expr.
func (*IsNull) Type() types.Type { return types.Boolean }

func (i *IsNull) String() string {
	if i.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", i.X)
	}
	return fmt.Sprintf("(%s IS NULL)", i.X)
}

// Case is a searched CASE (operand form is lowered to searched by the
// binder).
type Case struct {
	Whens []CaseWhen
	Else  Expr // may be nil => NULL
	T     types.Type
}

// CaseWhen is one arm.
type CaseWhen struct {
	When Expr
	Then Expr
}

// Type implements Expr.
func (c *Case) Type() types.Type { return c.T }

func (c *Case) String() string {
	s := "CASE"
	for _, w := range c.Whens {
		s += fmt.Sprintf(" WHEN %s THEN %s", w.When, w.Then)
	}
	if c.Else != nil {
		s += " ELSE " + c.Else.String()
	}
	return s + " END"
}

// Like matches X against a SQL LIKE pattern ('%' and '_' wildcards).
type Like struct {
	Not     bool
	X       Expr
	Pattern Expr
}

// Type implements Expr.
func (*Like) Type() types.Type { return types.Boolean }

func (l *Like) String() string {
	op := "LIKE"
	if l.Not {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s %s)", l.X, op, l.Pattern)
}

// InList tests membership in a literal list.
type InList struct {
	Not  bool
	X    Expr
	List []Expr
}

// Type implements Expr.
func (*InList) Type() types.Type { return types.Boolean }

func (i *InList) String() string {
	op := "IN"
	if i.Not {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (...))", i.X, op)
}

// Cast converts X to T.
type Cast struct {
	X Expr
	T types.Type
}

// Type implements Expr.
func (c *Cast) Type() types.Type { return c.T }

func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.X, c.T) }

// Call invokes a scalar builtin (GREATEST, LEAST, ABS, MOD, UPPER, LOWER,
// SUBSTRING, CHAR_LENGTH, FLOOR, CEIL, COALESCE).
type Call struct {
	Fn   string
	Args []Expr
	T    types.Type
}

// Type implements Expr.
func (c *Call) Type() types.Type { return c.T }

func (c *Call) String() string {
	s := c.Fn + "("
	for i, a := range c.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

// FloorTime truncates a timestamp to a unit boundary (FLOOR(ts TO HOUR)).
type FloorTime struct {
	X Expr
	// UnitMillis is the truncation granularity.
	UnitMillis int64
	UnitName   string
}

// Type implements Expr.
func (*FloorTime) Type() types.Type { return types.Timestamp }

func (f *FloorTime) String() string { return fmt.Sprintf("FLOOR(%s TO %s)", f.X, f.UnitName) }

// Columns returns the input columns the expressions read, ascending and
// each once — what a row-oriented evaluator of them needs gathered.
func Columns(es ...Expr) []int {
	var seen []bool
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case nil, *Const:
		case *ColRef:
			for len(seen) <= n.Idx {
				seen = append(seen, false)
			}
			seen[n.Idx] = true
		case *Binary:
			walk(n.L)
			walk(n.R)
		case *Not:
			walk(n.X)
		case *Neg:
			walk(n.X)
		case *IsNull:
			walk(n.X)
		case *Case:
			for _, w := range n.Whens {
				walk(w.When)
				walk(w.Then)
			}
			walk(n.Else)
		case *Like:
			walk(n.X)
			walk(n.Pattern)
		case *InList:
			walk(n.X)
			for _, x := range n.List {
				walk(x)
			}
		case *Cast:
			walk(n.X)
		case *Call:
			for _, a := range n.Args {
				walk(a)
			}
		case *FloorTime:
			walk(n.X)
		default:
			panic(fmt.Sprintf("expr: Columns over %T", e))
		}
	}
	for _, e := range es {
		walk(e)
	}
	var cols []int
	for c, ok := range seen {
		if ok {
			cols = append(cols, c)
		}
	}
	return cols
}
