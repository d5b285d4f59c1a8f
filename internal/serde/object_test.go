package serde

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestObjectPrimitivesMatchObjectSerde writes a row with the wire primitives
// and reads it back with a Reader: the bytes must be ObjectSerde's for the
// same []any row, and each read must accept only its own class.
func TestObjectPrimitivesMatchObjectSerde(t *testing.T) {
	row := []any{"SUM", int64(-300), 2.5, true, nil, []any{"s:0", int64(9)}}
	want, err := ObjectSerde{}.Encode(row)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendRowHeader(nil, len(row))
	got = AppendBool(AppendDouble(AppendLong(AppendString(got, "SUM"), -300), 2.5), true)
	got = AppendNull(got)
	got = AppendLong(AppendString(AppendRowHeader(AppendNestedRow(got), 2), "s:0"), 9)
	if !bytes.Equal(got, want) {
		t.Fatalf("primitives wrote\n%x\nObjectSerde wrote\n%x", got, want)
	}
	r := NewReader(got)
	n, fn, l, d, b := r.RowHeader(), string(r.Str()), r.Long(), r.Double(), r.Bool()
	cls := r.Class()
	r.Null()
	nested := NewReader(r.Row())
	if nested.RowHeader() != 2 || string(nested.Str()) != "s:0" || nested.Long() != 9 || nested.Done() != nil {
		t.Fatalf("nested row misread: %v", nested.Done())
	}
	if err := r.Done(); err != nil || n != 6 || fn != "SUM" || l != -300 || d != 2.5 || !b || cls != ClassNull {
		t.Fatalf("read %d %q %d %v %v %v: %v", n, fn, l, d, b, cls, err)
	}

	r = NewReader(AppendString(nil, "x"))
	if r.Long(); r.Err() == nil || !errors.Is(r.Err(), ErrCorruptObject) || !strings.Contains(r.Err().Error(), "string where long belongs") {
		t.Fatalf("long read of a string: %v", r.Err())
	}
	// A boolean byte other than 0 or 1 is not a boolean the encoder writes.
	two := append(AppendRowHeader(nil, 1), AppendBool(nil, false)...)
	two[len(two)-1] = 2
	if _, err := (ObjectSerde{}).Decode(two); !errors.Is(err, ErrCorruptObject) {
		t.Fatalf("boolean byte 2 decoded: %v", err)
	}
}
