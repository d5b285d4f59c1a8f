package operators

import (
	"bytes"
	"strconv"
	"testing"

	"samzasql/internal/kv"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// TestStreamRelationJoinTypedKeys joins a VARCHAR-keyed relation on the
// left with a stream on the right, on the typed path, without and with a
// residual conjunct. The relation holds a row under a NULL key, stored under
// the NULL key's state key; NULL stream keys match nothing, that row
// included. The stream's pad column, left absent by the scan, stays absent
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
			store := kv.NewStore()
			if err := op.Open(&OpContext{Store: func(string) kv.Store { return store }}); err != nil {
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
				rel.Cols[1].AppendInt64(r.weight)
				rel.appendMeta(0, nil, 0)
			}
			rel.Finish()
			if err := op.ProcessBlock(RightSide, rel, nil); err != nil {
				t.Fatal(err)
			}
			nullKey, err := serde.ObjectSerde{}.Encode([]any{nil})
			if err != nil {
				t.Fatal(err)
			}
			got, ok := store.Get(append([]byte("r:"), nullKey...))
			want, _ := serde.NewRowCodec(vec.KindsOf(relation)).AppendEncode(nil, []any{nil, int64(99)})
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("NULL-keyed relation row stored as % x (%v), want % x", got, ok, want)
			}

			b := &TupleBlock{}
			b.Begin("sales", 0, vec.KindsOf(stream))
			for i, sku := range []any{"a", nil, "b", "c", "a"} {
				ts := int64(10 * (i + 1))
				b.Cols[0].AppendInt64(ts)
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
