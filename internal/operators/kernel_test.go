package operators

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/vec"
)

// kernelRows is a seeded block of [i, j, f, g, s, b] rows — two int64, two
// float64, a string and a bool column — with NULLs everywhere, small ranges
// so ties are common, and the float values CompareValues treats specially
// (NaN, ±0, ±Inf) mixed in.
func kernelRows(n int) ([]vec.Kind, []types.Type, [][]any) {
	kinds := []vec.Kind{vec.Int64, vec.Int64, vec.Float64, vec.Float64, vec.String, vec.Bool}
	typs := []types.Type{types.Bigint, types.Bigint, types.Double, types.Double, types.Varchar, types.Boolean}
	rng := rand.New(rand.NewSource(7))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 2, 2.5, -1}
	rows := make([][]any, n)
	for r := range rows {
		row := []any{
			int64(rng.Intn(5) - 2), int64(rng.Intn(5) - 2),
			floats[rng.Intn(len(floats))], float64(rng.Intn(5) - 2),
			[]string{"", "a", "ab", "b"}[rng.Intn(4)], rng.Intn(2) == 0,
		}
		for c := range row {
			if rng.Intn(6) == 0 {
				row[c] = nil
			}
		}
		rows[r] = row
	}
	return kinds, typs, rows
}

// evalSelection is the reference: the compiled evaluator over each boxed
// row, keeping rows whose condition is TRUE.
func evalSelection(t *testing.T, cond expr.Expr, rows [][]any) []int {
	t.Helper()
	ev, err := expr.Compile(cond)
	if err != nil {
		t.Fatal(err)
	}
	var sel []int
	for r, row := range rows {
		v, err := ev(row)
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		if b, ok := v.(bool); ok && b {
			sel = append(sel, r)
		}
	}
	return sel
}

// TestCompareKernelsMatchEvaluator checks every comparison kernel —
// col ⋈ const, const ⋈ col and col ⋈ col for each pair of comparable kinds,
// every operator — and AND refinement against expr.CompareValues semantics
// as the evaluator applies them.
func TestCompareKernelsMatchEvaluator(t *testing.T) {
	kinds, typs, rows := kernelRows(300)
	col := func(c int) expr.Expr { return &expr.ColRef{Idx: c, Name: fmt.Sprint("c", c), T: typs[c]} }
	consts := map[vec.Kind][]expr.Expr{
		vec.Int64:   {&expr.Const{V: int64(0), T: types.Bigint}, &expr.Const{V: int64(-2), T: types.Bigint}},
		vec.Float64: {&expr.Const{V: 0.5, T: types.Double}, &expr.Const{V: math.NaN(), T: types.Double}, &expr.Const{V: math.Inf(1), T: types.Double}},
		vec.String:  {&expr.Const{V: "ab", T: types.Varchar}, &expr.Const{V: "", T: types.Varchar}},
		vec.Bool:    {&expr.Const{V: true, T: types.Boolean}},
	}
	comparable := func(a, b vec.Kind) bool {
		num := func(k vec.Kind) bool { return k == vec.Int64 || k == vec.Float64 }
		return a == b || num(a) && num(b)
	}
	var conds []expr.Expr
	for op := expr.Eq; op <= expr.Gte; op++ {
		cmp := func(l, r expr.Expr) expr.Expr { return &expr.Binary{Op: op, L: l, R: r, T: types.Boolean} }
		for c, kc := range kinds {
			for kk, ks := range consts {
				if !comparable(kc, kk) {
					continue
				}
				for _, k := range ks {
					conds = append(conds, cmp(col(c), k), cmp(k, col(c)))
				}
			}
			conds = append(conds, cmp(col(c), &expr.Const{V: nil, T: types.Null}))
			for d, kd := range kinds {
				if comparable(kc, kd) {
					conds = append(conds, cmp(col(c), col(d)))
				}
			}
		}
	}
	conds = append(conds,
		&expr.Binary{Op: expr.And, T: types.Boolean, L: conds[0], R: conds[len(conds)-1]},
		&expr.Binary{Op: expr.And, T: types.Boolean, L: conds[3], R: &expr.Not{X: conds[5]}})
	b := &TupleBlock{}
	for _, cond := range conds {
		sel, err := compileSelector(cond, kinds)
		if err != nil {
			t.Fatal(err)
		}
		blockOf(t, b, kinds, rows, -1, 0)
		if err := sel(b); err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		want := evalSelection(t, cond, rows)
		if fmt.Sprint(b.Sel) != fmt.Sprint(want) {
			t.Fatalf("%s: kernel kept %v, evaluator %v", cond, b.Sel, want)
		}
	}
	if k := compareKernel(conds[0].(*expr.Binary), kinds); k == nil {
		t.Fatalf("%s compiled to the evaluator, want a kernel", conds[0])
	}
}

// TestProjectSharesAndComputes checks a projection mixing bare columns (the
// input's vectors, shared) with computed ones (written back unboxed) keeps
// the input's selection and refreshes timestamps from the output column.
func TestProjectSharesAndComputes(t *testing.T) {
	kinds := []vec.Kind{vec.Int64, vec.String, vec.Int64}
	rows := [][]any{{int64(10), "x", int64(1)}, {int64(20), nil, int64(2)}, {int64(30), "z", int64(3)}}
	ts := &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp}
	op, err := NewProjectOp([]expr.Expr{
		&expr.ColRef{Idx: 1, Name: "s", T: types.Varchar},
		&expr.Binary{Op: expr.Add, L: ts, R: &expr.ColRef{Idx: 2, Name: "d", T: types.Bigint}, T: types.Timestamp},
		&expr.Binary{Op: expr.Gt, L: &expr.ColRef{Idx: 2, Name: "d", T: types.Bigint}, R: &expr.Const{V: int64(1), T: types.Bigint}, T: types.Boolean},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := blockOf(t, &TupleBlock{}, kinds, rows, 0, 0)
	b.Sel = []int{0, 2}
	var out []testRow
	if err := op.ProcessBlock(0, b, collect(&out)); err != nil {
		t.Fatal(err)
	}
	want := "[{[x 11 false] 11 [] 0} {[z 33 true] 33 [] 2}]"
	if got := fmt.Sprint(out); got != want {
		t.Fatalf("projected %s, want %s", got, want)
	}
	if &op.outBlock.Cols[0].Ext[0] != &b.Cols[1].Ext[0] {
		t.Fatal("bare column was copied, want the input's vector shared")
	}
}
