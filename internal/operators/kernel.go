package operators

import (
	"bytes"
	"fmt"

	"samzasql/internal/sql/expr"
	"samzasql/internal/vec"
)

// selector refines a block's selection vector in place, keeping the rows on
// which a predicate is TRUE.
type selector func(b *TupleBlock) error

// compileSelector compiles a filter condition over input rows of the given
// column kinds, once per plan. A comparison of a column with a constant or
// with another column of kind int64, float64, string or bool becomes a typed
// kernel over the selection vector; AND refines the selection one conjunct
// at a time; everything else runs the compiled expr.Evaluator over the
// block's boxed view.
func compileSelector(cond expr.Expr, in []vec.Kind) (selector, error) {
	if bin, ok := cond.(*expr.Binary); ok {
		if bin.Op == expr.And {
			l, err := compileSelector(bin.L, in)
			if err != nil {
				return nil, err
			}
			r, err := compileSelector(bin.R, in)
			if err != nil {
				return nil, err
			}
			// Keeping the rows where both conjuncts are TRUE is keeping the
			// rows where AND is TRUE; NULL and FALSE both filter out.
			return func(b *TupleBlock) error {
				if err := l(b); err != nil {
					return err
				}
				return r(b)
			}, nil
		}
		if k := compareKernel(bin, in); k != nil {
			return k, nil
		}
	}
	ev, err := expr.Compile(cond)
	if err != nil {
		return nil, err
	}
	refs := expr.Columns(cond)
	var scratch []any
	return func(b *TupleBlock) error {
		b.box(refs)
		row := rowScratch(&scratch, b)
		sel := b.Sel[:0]
		for _, r := range b.Sel {
			v, err := ev(b.gather(r, row, refs))
			if err != nil {
				return err
			}
			if keep, ok := v.(bool); ok && keep {
				sel = append(sel, r)
			}
		}
		b.Sel = sel
		return nil
	}, nil
}

// operand is one side of a comparison: a column of a typed kind, or a
// constant (col < 0; nil is SQL NULL).
type operand struct {
	col  int
	kind vec.Kind
	k    any
}

func operandOf(e expr.Expr, in []vec.Kind) (operand, bool) {
	switch n := e.(type) {
	case *expr.ColRef:
		if n.Idx >= len(in) || in[n.Idx] == vec.Any {
			return operand{}, false
		}
		return operand{col: n.Idx, kind: in[n.Idx]}, true
	case *expr.Const:
		o := operand{col: -1, k: n.V}
		switch n.V.(type) {
		case nil:
			o.kind = vec.Any
		case int64:
			o.kind = vec.Int64
		case float64:
			o.kind = vec.Float64
		case string:
			o.kind = vec.String
		case bool:
			o.kind = vec.Bool
		default:
			return operand{}, false
		}
		return o, true
	}
	return operand{}, false
}

// flipped is op with its operands swapped: c(a, b) = -c(b, a) holds for
// every comparison CompareValues makes, NaN included.
func flipped(op expr.BinOp) expr.BinOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Lte:
		return expr.Gte
	case expr.Gt:
		return expr.Lt
	case expr.Gte:
		return expr.Lte
	}
	return op
}

// compareKernel compiles `col ⋈ const`, `const ⋈ col` or `col ⋈ col` into a
// typed kernel with exactly expr.CompareValues semantics: int64 against
// float64 compares as float64, a NaN compares equal to everything (cmpF), a
// NULL operand drops the row. It returns nil for any other shape or for
// kinds CompareValues would reject at run time — those keep the evaluator,
// and its error.
func compareKernel(bin *expr.Binary, in []vec.Kind) selector {
	if bin.Op < expr.Eq || bin.Op > expr.Gte {
		return nil
	}
	l, lok := operandOf(bin.L, in)
	r, rok := operandOf(bin.R, in)
	if !lok || !rok {
		return nil
	}
	op := bin.Op
	if l.col < 0 {
		l, r, op = r, l, flipped(op)
	}
	if l.col < 0 {
		return nil // constant ⋈ constant: not worth a kernel
	}
	if r.col < 0 && r.k == nil {
		return func(b *TupleBlock) error { b.Sel = b.Sel[:0]; return nil }
	}
	lk, rk := l.kind, r.kind
	numeric := func(k vec.Kind) bool { return k == vec.Int64 || k == vec.Float64 }
	if lk != rk && !(numeric(lk) && numeric(rk)) {
		return nil
	}
	if r.col < 0 {
		return constKernel(op, l.col, lk, r.k)
	}
	return colsKernel(op, l.col, lk, r.col, rk)
}

// column returns column c of b after checking it has the planned kind.
func column(b *TupleBlock, c int, k vec.Kind) (*vec.Vec, error) {
	col := &b.Cols[c]
	if col.Kind != k {
		return nil, fmt.Errorf("column %d is %s, planned %s", c, col.Kind, k)
	}
	return col, nil
}

// dropNulls removes the rows where col is NULL from sel.
func dropNulls(sel []int, col *vec.Vec) []int {
	if col.Absent {
		return sel[:0]
	}
	if !col.HasNull {
		return sel
	}
	out := sel[:0]
	for _, r := range sel {
		if !col.IsNull(r) {
			out = append(out, r)
		}
	}
	return out
}

func constKernel(op expr.BinOp, c int, kind vec.Kind, k any) selector {
	// The constant, converted once: int64 against a DOUBLE column compares
	// as float64; a string constant compares as bytes against the arena.
	ki, isInt := k.(int64)
	kf, _ := k.(float64)
	if isInt {
		kf = float64(ki)
	}
	ks, _ := k.(string)
	kb := []byte(ks)
	kt, _ := k.(bool)
	return func(b *TupleBlock) error {
		col, err := column(b, c, kind)
		if err != nil {
			return err
		}
		sel := dropNulls(b.Sel, col)
		switch {
		case kind == vec.Int64 && isInt:
			b.Sel = keepConst(op, sel, col.I64, ki)
		case kind == vec.Int64:
			b.Sel = keepConst(op, sel, col.I64, kf)
		case kind == vec.Float64:
			b.Sel = keepConst(op, sel, col.F64, kf)
		case kind == vec.String:
			b.Sel = keepWhere(op, sel, func(r int) int { return bytes.Compare(col.Str(r), kb) })
		default:
			b.Sel = keepWhere(op, sel, func(r int) int { return cmpBool(col.Bools[r], kt) })
		}
		return nil
	}
}

func colsKernel(op expr.BinOp, lc int, lk vec.Kind, rc int, rk vec.Kind) selector {
	return func(b *TupleBlock) error {
		l, err := column(b, lc, lk)
		if err != nil {
			return err
		}
		r, err := column(b, rc, rk)
		if err != nil {
			return err
		}
		sel := dropNulls(dropNulls(b.Sel, l), r)
		switch {
		case lk == vec.Int64 && rk == vec.Int64:
			b.Sel = keepCols[int64, int64, int64](op, sel, l.I64, r.I64)
		case lk == vec.Int64:
			b.Sel = keepCols[int64, float64, float64](op, sel, l.I64, r.F64)
		case rk == vec.Int64:
			b.Sel = keepCols[float64, int64, float64](op, sel, l.F64, r.I64)
		case lk == vec.Float64:
			b.Sel = keepCols[float64, float64, float64](op, sel, l.F64, r.F64)
		case lk == vec.String:
			b.Sel = keepWhere(op, sel, func(i int) int { return bytes.Compare(l.Str(i), r.Str(i)) })
		default:
			b.Sel = keepWhere(op, sel, func(i int) int { return cmpBool(l.Bools[i], r.Bools[i]) })
		}
		return nil
	}
}

type number interface{ int64 | float64 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keepConst keeps the rows r of sel where K(xs[r]) ⋈ k. Every predicate is
// written with < and > only, so a NaN behaves exactly as in cmpF: equal to
// everything, less or greater than nothing. The selection is compacted in
// place, without a branch per row.
//
//samzasql:hotpath
func keepConst[T, K number](op expr.BinOp, sel []int, xs []T, k K) []int {
	n := 0
	switch op {
	case expr.Eq:
		for _, r := range sel {
			x := K(xs[r])
			sel[n] = r
			n += b2i(!(x < k)) & b2i(!(x > k))
		}
	case expr.Neq:
		for _, r := range sel {
			x := K(xs[r])
			sel[n] = r
			n += b2i(x < k) | b2i(x > k)
		}
	case expr.Lt:
		for _, r := range sel {
			sel[n] = r
			n += b2i(K(xs[r]) < k)
		}
	case expr.Lte:
		for _, r := range sel {
			sel[n] = r
			n += b2i(!(K(xs[r]) > k))
		}
	case expr.Gt:
		for _, r := range sel {
			sel[n] = r
			n += b2i(K(xs[r]) > k)
		}
	case expr.Gte:
		for _, r := range sel {
			sel[n] = r
			n += b2i(!(K(xs[r]) < k))
		}
	}
	return sel[:n]
}

// keepCols keeps the rows r of sel where K(xs[r]) ⋈ K(ys[r]), with
// keepConst's semantics.
//
//samzasql:hotpath
func keepCols[T, U, K number](op expr.BinOp, sel []int, xs []T, ys []U) []int {
	n := 0
	for _, r := range sel {
		x, y := K(xs[r]), K(ys[r])
		sel[n] = r
		n += b2i(holds(op, b2i(x > y)-b2i(x < y)))
	}
	return sel[:n]
}

// keepWhere keeps the rows r of sel where cmp(r) ⋈ 0.
func keepWhere(op expr.BinOp, sel []int, cmp func(r int) int) []int {
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += b2i(holds(op, cmp(r)))
	}
	return sel[:n]
}

// holds applies a comparison operator to a three-way comparison result.
func holds(op expr.BinOp, c int) bool {
	switch op {
	case expr.Eq:
		return c == 0
	case expr.Neq:
		return c != 0
	case expr.Lt:
		return c < 0
	case expr.Lte:
		return c <= 0
	case expr.Gt:
		return c > 0
	}
	return c >= 0
}

func cmpBool(a, b bool) int { return b2i(a) - b2i(b) }
