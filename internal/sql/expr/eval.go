package expr

import (
	"fmt"
	"math"
	"strings"

	"samzasql/internal/sql/types"
)

// Evaluator computes an expression over one input row ([]any). SQL NULL is
// Go nil. Returned errors abort message processing (they indicate type
// corruption, not data conditions).
type Evaluator func(row []any) (any, error)

// Compile lowers a bound expression into an evaluator closure tree. This is
// the Go stand-in for the paper's Janino code generation: each node becomes
// a closure, so evaluation is a direct call chain with no interpretation
// dispatch over the AST at runtime.
func Compile(e Expr) (Evaluator, error) {
	switch n := e.(type) {
	case *ColRef:
		idx := n.Idx
		return func(row []any) (any, error) {
			if idx >= len(row) {
				return nil, fmt.Errorf("expr: row has %d columns, need %d", len(row), idx+1)
			}
			return row[idx], nil
		}, nil
	case *Const:
		v := n.V
		return func([]any) (any, error) { return v, nil }, nil
	case *Binary:
		return compileBinary(n)
	case *Not:
		x, err := Compile(n.X)
		if err != nil {
			return nil, err
		}
		return func(row []any) (any, error) {
			v, err := x(row)
			if err != nil || v == nil {
				return nil, err
			}
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("expr: NOT over %T", v)
			}
			return !b, nil
		}, nil
	case *Neg:
		x, err := Compile(n.X)
		if err != nil {
			return nil, err
		}
		return func(row []any) (any, error) {
			v, err := x(row)
			if err != nil || v == nil {
				return nil, err
			}
			switch t := v.(type) {
			case int64:
				return -t, nil
			case float64:
				return -t, nil
			default:
				return nil, fmt.Errorf("expr: negation of %T", v)
			}
		}, nil
	case *IsNull:
		x, err := Compile(n.X)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(row []any) (any, error) {
			v, err := x(row)
			if err != nil {
				return nil, err
			}
			return (v == nil) != not, nil
		}, nil
	case *Case:
		return compileCase(n)
	case *Like:
		return compileLike(n)
	case *InList:
		return compileInList(n)
	case *Cast:
		return compileCast(n)
	case *Call:
		return compileCall(n)
	case *FloorTime:
		x, err := Compile(n.X)
		if err != nil {
			return nil, err
		}
		unit := n.UnitMillis
		return func(row []any) (any, error) {
			v, err := x(row)
			if err != nil || v == nil {
				return nil, err
			}
			ts, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("expr: FLOOR TO over %T", v)
			}
			return (ts / unit) * unit, nil
		}, nil
	default:
		return nil, fmt.Errorf("expr: cannot compile %T", e)
	}
}

func compileBinary(n *Binary) (Evaluator, error) {
	l, err := Compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := Compile(n.R)
	if err != nil {
		return nil, err
	}
	op := n.Op
	switch op {
	case And:
		return func(row []any) (any, error) {
			lv, err := l(row)
			if err != nil {
				return nil, err
			}
			// SQL three-valued logic: FALSE AND x = FALSE even for NULL x.
			if lb, ok := lv.(bool); ok && !lb {
				return false, nil
			}
			rv, err := r(row)
			if err != nil {
				return nil, err
			}
			if rb, ok := rv.(bool); ok && !rb {
				return false, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return true, nil
		}, nil
	case Or:
		return func(row []any) (any, error) {
			lv, err := l(row)
			if err != nil {
				return nil, err
			}
			if lb, ok := lv.(bool); ok && lb {
				return true, nil
			}
			rv, err := r(row)
			if err != nil {
				return nil, err
			}
			if rb, ok := rv.(bool); ok && rb {
				return true, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return false, nil
		}, nil
	case Concat:
		return func(row []any) (any, error) {
			lv, err := l(row)
			if err != nil || lv == nil {
				return nil, err
			}
			rv, err := r(row)
			if err != nil || rv == nil {
				return nil, err
			}
			return toStr(lv) + toStr(rv), nil
		}, nil
	}
	if op >= Eq && op <= Gte {
		return func(row []any) (any, error) {
			lv, err := l(row)
			if err != nil || lv == nil {
				return nil, err
			}
			rv, err := r(row)
			if err != nil || rv == nil {
				return nil, err
			}
			c, err := CompareValues(lv, rv)
			if err != nil {
				return nil, err
			}
			switch op {
			case Eq:
				return c == 0, nil
			case Neq:
				return c != 0, nil
			case Lt:
				return c < 0, nil
			case Lte:
				return c <= 0, nil
			case Gt:
				return c > 0, nil
			default:
				return c >= 0, nil
			}
		}, nil
	}
	// Arithmetic. Specialize on the planned result type for speed.
	wantInt := n.T == types.Bigint || n.T == types.Timestamp || n.T == types.Interval
	return func(row []any) (any, error) {
		lv, err := l(row)
		if err != nil || lv == nil {
			return nil, err
		}
		rv, err := r(row)
		if err != nil || rv == nil {
			return nil, err
		}
		if wantInt {
			a, aok := lv.(int64)
			b, bok := rv.(int64)
			if aok && bok {
				return intArith(op, a, b)
			}
		}
		a, err := toFloat(lv)
		if err != nil {
			return nil, err
		}
		b, err := toFloat(rv)
		if err != nil {
			return nil, err
		}
		return floatArith(op, a, b)
	}, nil
}

func intArith(op BinOp, a, b int64) (any, error) {
	switch op {
	case Add:
		return a + b, nil
	case Sub:
		return a - b, nil
	case Mul:
		return a * b, nil
	case Div:
		if b == 0 {
			return nil, fmt.Errorf("expr: division by zero")
		}
		return a / b, nil
	case Mod:
		if b == 0 {
			return nil, fmt.Errorf("expr: modulo by zero")
		}
		return a % b, nil
	default:
		return nil, fmt.Errorf("expr: bad int op %s", op)
	}
}

func floatArith(op BinOp, a, b float64) (any, error) {
	switch op {
	case Add:
		return a + b, nil
	case Sub:
		return a - b, nil
	case Mul:
		return a * b, nil
	case Div:
		if b == 0 {
			return nil, fmt.Errorf("expr: division by zero")
		}
		return a / b, nil
	case Mod:
		if b == 0 {
			return nil, fmt.Errorf("expr: modulo by zero")
		}
		return math.Mod(a, b), nil
	default:
		return nil, fmt.Errorf("expr: bad float op %s", op)
	}
}

// CompareValues orders two non-nil SQL values of compatible types.
func CompareValues(a, b any) (int, error) {
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmp(av, bv), nil
		case float64:
			return cmpF(float64(av), bv), nil
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return cmpF(av, float64(bv)), nil
		case float64:
			return cmpF(av, bv), nil
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), nil
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case av == bv:
				return 0, nil
			case !av:
				return -1, nil
			default:
				return 1, nil
			}
		}
	}
	return 0, fmt.Errorf("expr: cannot compare %T with %T", a, b)
}

func cmp(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func toFloat(v any) (float64, error) {
	switch t := v.(type) {
	case int64:
		return float64(t), nil
	case float64:
		return t, nil
	default:
		return 0, fmt.Errorf("expr: %T is not numeric", v)
	}
}

func toStr(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprintf("%v", v)
}

func compileCase(n *Case) (Evaluator, error) {
	type arm struct{ when, then Evaluator }
	arms := make([]arm, len(n.Whens))
	for i, w := range n.Whens {
		we, err := Compile(w.When)
		if err != nil {
			return nil, err
		}
		te, err := Compile(w.Then)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{we, te}
	}
	var elseEv Evaluator
	if n.Else != nil {
		var err error
		elseEv, err = Compile(n.Else)
		if err != nil {
			return nil, err
		}
	}
	return func(row []any) (any, error) {
		for _, a := range arms {
			c, err := a.when(row)
			if err != nil {
				return nil, err
			}
			if b, ok := c.(bool); ok && b {
				return a.then(row)
			}
		}
		if elseEv != nil {
			return elseEv(row)
		}
		return nil, nil
	}, nil
}

func compileLike(n *Like) (Evaluator, error) {
	x, err := Compile(n.X)
	if err != nil {
		return nil, err
	}
	p, err := Compile(n.Pattern)
	if err != nil {
		return nil, err
	}
	not := n.Not
	return func(row []any) (any, error) {
		xv, err := x(row)
		if err != nil || xv == nil {
			return nil, err
		}
		pv, err := p(row)
		if err != nil || pv == nil {
			return nil, err
		}
		s, ok1 := xv.(string)
		pat, ok2 := pv.(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("expr: LIKE over %T, %T", xv, pv)
		}
		return likeMatch(s, pat) != not, nil
	}, nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func compileInList(n *InList) (Evaluator, error) {
	x, err := Compile(n.X)
	if err != nil {
		return nil, err
	}
	items := make([]Evaluator, len(n.List))
	for i, e := range n.List {
		ev, err := Compile(e)
		if err != nil {
			return nil, err
		}
		items[i] = ev
	}
	not := n.Not
	return func(row []any) (any, error) {
		xv, err := x(row)
		if err != nil || xv == nil {
			return nil, err
		}
		sawNull := false
		for _, it := range items {
			iv, err := it(row)
			if err != nil {
				return nil, err
			}
			if iv == nil {
				sawNull = true
				continue
			}
			c, err := CompareValues(xv, iv)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				return !not, nil
			}
		}
		if sawNull {
			return nil, nil // unknown
		}
		return not, nil
	}, nil
}

func compileCast(n *Cast) (Evaluator, error) {
	x, err := Compile(n.X)
	if err != nil {
		return nil, err
	}
	to := n.T
	return func(row []any) (any, error) {
		v, err := x(row)
		if err != nil || v == nil {
			return nil, err
		}
		return CastValue(v, to)
	}, nil
}

// CastValue converts a non-nil value to the target type.
func CastValue(v any, to types.Type) (any, error) {
	switch to {
	case types.Bigint, types.Timestamp, types.Interval:
		switch t := v.(type) {
		case int64:
			return t, nil
		case float64:
			return int64(t), nil
		case string:
			var n int64
			if _, err := fmt.Sscanf(strings.TrimSpace(t), "%d", &n); err != nil {
				return nil, fmt.Errorf("expr: cannot cast %q to %s", t, to)
			}
			return n, nil
		case bool:
			if t {
				return int64(1), nil
			}
			return int64(0), nil
		}
	case types.Double:
		switch t := v.(type) {
		case int64:
			return float64(t), nil
		case float64:
			return t, nil
		case string:
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(t), "%g", &f); err != nil {
				return nil, fmt.Errorf("expr: cannot cast %q to DOUBLE", t)
			}
			return f, nil
		}
	case types.Varchar:
		return toStr(v), nil
	case types.Boolean:
		switch t := v.(type) {
		case bool:
			return t, nil
		case string:
			switch strings.ToUpper(strings.TrimSpace(t)) {
			case "TRUE", "T", "1":
				return true, nil
			case "FALSE", "F", "0":
				return false, nil
			}
		}
	case types.AnyType:
		return v, nil
	}
	return nil, fmt.Errorf("expr: cannot cast %T to %s", v, to)
}
