package operators

import (
	"strconv"
	"testing"

	"samzasql/internal/metrics"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// TestStreamRelationJoinTypedKeys joins a VARCHAR-keyed relation on the
// left with a stream on the right, on the typed path, without and with a
// residual conjunct. The relation carries a row under a NULL key, which the
// table does not keep; NULL stream keys match nothing. The stream's pad column, left absent by the scan, stays absent
// in the output instead of becoming a NULL per row.
func TestStreamRelationJoinTypedKeys(t *testing.T) {
	relation := types.NewRowType(
		types.Column{Name: "sku", Type: types.Varchar},
		types.Column{Name: "weight", Type: types.Bigint},
	)
	stream := types.NewRowType(
		types.Column{Name: "rowtime", Type: types.Timestamp},
		types.Column{Name: "sku", Type: types.Varchar},
		types.Column{Name: "pad", Type: types.Varchar},
	)
	relKey := &expr.ColRef{Idx: 0, Name: "sku", T: types.Varchar}
	streamKey := &expr.ColRef{Idx: 3, Name: "sku", T: types.Varchar}
	weight := &expr.ColRef{Idx: 1, Name: "weight", T: types.Bigint}
	keyEq := &expr.Binary{Op: expr.Eq, L: &expr.ColRef{Idx: 3, Name: "sku", T: types.Varchar}, R: &expr.ColRef{Idx: 0, Name: "sku", T: types.Varchar}, T: types.Boolean}
	light := &expr.Binary{Op: expr.Lt, L: weight, R: &expr.Const{V: int64(2), T: types.Bigint}, T: types.Boolean}
	for _, c := range []struct {
		name     string
		on       expr.Expr
		residual bool
		want     []string // joined sku/weight/rowtime per output row
	}{
		{"key-only", keyEq, false, []string{"a/1/10", "b/2/30", "a/1/50"}},
		{"residual", &expr.Binary{Op: expr.And, L: keyEq, R: light, T: types.Boolean}, true, []string{"a/1/10", "a/1/50"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			info := &validate.JoinInfo{On: c.on, LeftKey: relKey, RightKey: streamKey}
			op, err := NewStreamRelationJoinOp(info, relation, stream, false)
			if err != nil {
				t.Fatal(err)
			}
			if (op.residual != nil) != c.residual {
				t.Fatalf("residual compiled: %v, want %v", op.residual != nil, c.residual)
			}
			if err := op.Open(&OpContext{}); err != nil {
				t.Fatal(err)
			}
			rel := &TupleBlock{}
			rel.Begin("skus", 0, vec.KindsOf(relation))
			for _, r := range []struct {
				sku    any
				weight int64
			}{{"a", 1}, {"b", 2}, {nil, 99}} {
				if err := rel.Cols[0].Append(r.sku); err != nil {
					t.Fatal(err)
				}
				appendInt64(&rel.Cols[1], r.weight)
				rel.appendMeta(0, nil, 0)
			}
			rel.Finish()
			if err := op.ProcessBlock(RightSide, rel, nil); err != nil {
				t.Fatal(err)
			}
			if op.rel.n != 2 || op.rel.fixed {
				t.Fatalf("relation table holds %d rows (fixed-width keys: %v), want the 2 non-NULL VARCHAR keys", op.rel.n, op.rel.fixed)
			}

			b := &TupleBlock{}
			b.Begin("sales", 0, vec.KindsOf(stream))
			for i, sku := range []any{"a", nil, "b", "c", "a"} {
				ts := int64(10 * (i + 1))
				appendInt64(&b.Cols[0], ts)
				if err := b.Cols[1].Append(sku); err != nil {
					t.Fatal(err)
				}
				b.appendMeta(ts, nil, int64(i))
			}
			b.Finish()
			b.Cols[2].Reset(vec.String, b.N, true)
			var rows []string
			err = op.ProcessBlock(LeftSide, b, func(out *TupleBlock) error {
				if !out.Cols[4].Absent {
					t.Error("the absent pad column came out present")
				}
				for _, r := range out.Sel {
					rows = append(rows, string(out.Cols[0].Str(r))+"/"+
						strconv.FormatInt(out.Cols[1].I64[r], 10)+"/"+strconv.FormatInt(out.Cols[2].I64[r], 10))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(c.want) {
				t.Fatalf("joined %v, want %v", rows, c.want)
			}
			for i := range rows {
				if rows[i] != c.want[i] {
					t.Fatalf("joined %v, want %v", rows, c.want)
				}
			}
		})
	}
}

// TestStreamRelationJoinBooksTableOps checks that the relation table's
// operations reach the store metrics one observation each, as a task
// store's do: a put per relation row with a key, a get per stream row and a
// delete per tombstone that names a key, held or not.
func TestStreamRelationJoinBooksTableOps(t *testing.T) {
	relation := types.NewRowType(
		types.Column{Name: "sku", Type: types.Varchar},
		types.Column{Name: "weight", Type: types.Bigint},
	)
	stream := types.NewRowType(
		types.Column{Name: "rowtime", Type: types.Timestamp},
		types.Column{Name: "sku", Type: types.Varchar},
	)
	relKey := &expr.ColRef{Idx: 0, Name: "sku", T: types.Varchar}
	streamKey := &expr.ColRef{Idx: 3, Name: "sku", T: types.Varchar}
	info := &validate.JoinInfo{
		On:      &expr.Binary{Op: expr.Eq, L: streamKey, R: relKey, T: types.Boolean},
		LeftKey: relKey, RightKey: streamKey,
	}
	op, err := NewStreamRelationJoinOp(info, relation, stream, false)
	if err != nil {
		t.Fatal(err)
	}
	op.SetRelationKeyedBy(types.Varchar)
	reg := metrics.NewRegistry()
	if err := op.Open(&OpContext{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	rel := &TupleBlock{}
	rel.Begin("skus", 0, vec.KindsOf(relation))
	for _, sku := range []any{"a", "b", nil} {
		if err := rel.Cols[0].Append(sku); err != nil {
			t.Fatal(err)
		}
		appendInt64(&rel.Cols[1], 1)
		rel.appendMeta(0, nil, 0)
	}
	rel.Finish()
	if err := op.ProcessBlock(RightSide, rel, nil); err != nil {
		t.Fatal(err)
	}
	b := &TupleBlock{}
	b.Begin("sales", 0, vec.KindsOf(stream))
	for i, sku := range []any{"a", nil, "b", "c", "a"} {
		appendInt64(&b.Cols[0], int64(i))
		if err := b.Cols[1].Append(sku); err != nil {
			t.Fatal(err)
		}
		b.appendMeta(int64(i), nil, int64(i))
	}
	b.Finish()
	if err := op.ProcessBlock(LeftSide, b, func(*TupleBlock) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, sku := range []string{"a", "zz"} {
		if err := op.DeleteRelation([]byte(sku)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for op, want := range map[string]int64{"put": 2, "get": 5, "delete": 2} {
		name := "store." + RelationTableName + "." + op + "-ns"
		if got := snap.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}
