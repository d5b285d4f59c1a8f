package vec

import (
	"fmt"
	"testing"

	"samzasql/internal/sql/types"
)

// TestSetAppendValue pins the unboxing rules every operator writes through:
// NULLs, the integer and numeric conversions the Avro encoder makes, the
// escape column, and the Go types a typed vector refuses.
func TestSetAppendValue(t *testing.T) {
	cases := []struct {
		kind Kind
		in   []any
		want string
	}{
		{Int64, []any{int64(-3), nil, 7, int32(9)}, "[-3 <nil> 7 9]"},
		{Float64, []any{1.5, int64(2), nil, float32(0.5)}, "[1.5 2 <nil> 0.5]"},
		{Bool, []any{true, nil, false}, "[true <nil> false]"},
		{String, []any{"a", nil, "", "héllo"}, "[a <nil>  héllo]"},
		{Any, []any{[]any{int64(1)}, nil, "x"}, "[[1] <nil> x]"},
	}
	for _, c := range cases {
		var v Vec
		v.Truncate(c.kind)
		for _, x := range c.in {
			if err := v.Append(x); err != nil {
				t.Fatalf("%s: append %#v: %v", c.kind, x, err)
			}
		}
		var got []any
		var copied Vec
		copied.Reset(c.kind, len(c.in), false)
		for r := range c.in {
			copied.SetNull(r) // SetFrom must clear it
		}
		for r := len(c.in) - 1; r >= 0; r-- {
			got = append([]any{v.Value(r)}, got...)
			if err := copied.SetFrom(r, &v, r); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(copied.Value(r)) != fmt.Sprint(v.Value(r)) {
				t.Fatalf("%s row %d: SetFrom copied %v, want %v", c.kind, r, copied.Value(r), v.Value(r))
			}
		}
		if fmt.Sprint(got) != c.want {
			t.Fatalf("%s: values %v, want %s", c.kind, got, c.want)
		}
	}
	for kind, bad := range map[Kind]any{Int64: 1.5, Float64: "1", Bool: int64(1), String: []byte("x")} {
		var v Vec
		v.Truncate(kind)
		if err := v.Append(bad); err == nil {
			t.Errorf("%s column took %T", kind, bad)
		}
	}
}

// TestResetAndNulls checks a reused vector starts every block with no NULLs
// and that an absent vector reads NULL everywhere.
func TestResetAndNulls(t *testing.T) {
	var v Vec
	v.Reset(Int64, 130, false)
	v.SetNull(129)
	if !v.IsNull(129) || v.IsNull(128) {
		t.Fatal("NULL bit of row 129 not isolated")
	}
	if err := v.Set(129, int64(4)); err != nil || v.IsNull(129) {
		t.Fatalf("Set over a NULL row left it NULL (err %v)", err)
	}
	v.SetNull(5)
	v.Reset(Int64, 10, false)
	if v.IsNull(5) || v.HasNull {
		t.Fatal("Reset kept a NULL from the previous block")
	}
	v.Reset(Int64, 10, true)
	if !v.IsNull(3) || v.Value(3) != nil {
		t.Fatal("absent vector has a value")
	}
	if got := KindsOf(types.NewRowType(types.Column{Type: types.Timestamp}, types.Column{Type: types.Double},
		types.Column{Type: types.Varchar}, types.Column{Type: types.Boolean}, types.Column{Type: types.AnyType})); fmt.Sprint(got) != "[int64 float64 string bool any]" {
		t.Fatalf("KindsOf = %v", got)
	}
}
