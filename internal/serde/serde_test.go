package serde

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestStringSerdeRoundTrip(t *testing.T) {
	s := StringSerde{}
	b, err := s.Encode("hello")
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Decode(b)
	if err != nil || v.(string) != "hello" {
		t.Fatalf("decode: %v %v", v, err)
	}
	if _, err := s.Encode(42); !errors.Is(err, ErrWrongType) {
		t.Fatalf("wrong type: %v", err)
	}
}

func TestInt64SerdeRoundTrip(t *testing.T) {
	s := Int64Serde{}
	for _, n := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 123456789} {
		b, err := s.Encode(n)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Decode(b)
		if err != nil || v.(int64) != n {
			t.Fatalf("round trip %d: %v %v", n, v, err)
		}
	}
	if _, err := s.Decode([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestInt64SerdeOrderPreserving(t *testing.T) {
	s := Int64Serde{}
	values := []int64{-100, -1, 0, 1, 7, 1000, math.MinInt64, math.MaxInt64}
	type pair struct {
		n int64
		b []byte
	}
	pairs := make([]pair, len(values))
	for i, n := range values {
		b, _ := s.Encode(n)
		pairs[i] = pair{n, b}
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].b, pairs[j].b) < 0 })
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].n >= pairs[i].n {
			t.Fatalf("byte order violates numeric order: %d before %d", pairs[i-1].n, pairs[i].n)
		}
	}
}

func TestJSONSerdeRoundTrip(t *testing.T) {
	s := JSONSerde{}
	in := map[string]any{"a": float64(1), "b": "x", "c": []any{true, nil}}
	b, err := s.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["a"].(float64) != 1 || m["b"].(string) != "x" {
		t.Fatalf("decoded %v", m)
	}
}

func TestGobSerdeRowRoundTrip(t *testing.T) {
	s := GobSerde{}
	row := []any{int64(5), "abc", 3.14, true}
	b, err := s.Encode(row)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	out := v.([]any)
	if len(out) != 4 || out[0].(int64) != 5 || out[1].(string) != "abc" || out[2].(float64) != 3.14 || out[3].(bool) != true {
		t.Fatalf("decoded %v", out)
	}
}

func TestGobSerdeScalar(t *testing.T) {
	s := GobSerde{}
	b, err := s.Encode("solo")
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if row := v.([]any); len(row) != 1 || row[0].(string) != "solo" {
		t.Fatalf("decoded %v", v)
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"string", "int64", "bytes", "json", "gob"} {
		s, err := Lookup(name)
		if err != nil || s.Name() != name {
			t.Fatalf("Lookup(%q): %v %v", name, s, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown serde resolved")
	}
}

// Property: int64 serde round-trips every value and preserves ordering
// pairwise.
func TestPropertyInt64Serde(t *testing.T) {
	s := Int64Serde{}
	f := func(a, b int64) bool {
		ea, err1 := s.Encode(a)
		eb, err2 := s.Encode(b)
		if err1 != nil || err2 != nil {
			return false
		}
		da, _ := s.Decode(ea)
		db, _ := s.Decode(eb)
		if da.(int64) != a || db.(int64) != b {
			return false
		}
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: string serde round-trips arbitrary strings.
func TestPropertyStringSerde(t *testing.T) {
	s := StringSerde{}
	f := func(in string) bool {
		b, err := s.Encode(in)
		if err != nil {
			return false
		}
		v, err := s.Decode(b)
		return err == nil && v.(string) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

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
