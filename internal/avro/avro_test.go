package avro

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func ordersSchema() *Schema {
	return Record("Orders",
		F("rowtime", Long()),
		F("productId", Long()),
		F("orderId", Long()),
		F("units", Long()),
		F("pad", String()),
	)
}

func TestEncodeDecodeRoundTripMap(t *testing.T) {
	c := MustCodec(ordersSchema())
	b, err := c.EncodeRow([]any{int64(1700000000000), int64(42), int64(7), int64(100), "xxxx"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"rowtime":   int64(1700000000000),
		"productId": int64(42),
		"orderId":   int64(7),
		"units":     int64(100),
		"pad":       "xxxx",
	}
	if !reflect.DeepEqual(want, out) {
		t.Fatalf("round trip mismatch:\nwant: %v\n out: %v", want, out)
	}
}

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	c := MustCodec(ordersSchema())
	row := []any{int64(1), int64(2), int64(3), int64(4), "p"}
	b, err := c.EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeRow(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, got) {
		t.Fatalf("row round trip mismatch: %v vs %v", row, got)
	}
	// Reuse path.
	reuse := make([]any, 5)
	got2, err := c.DecodeRow(b, reuse)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, got2) {
		t.Fatalf("reused row mismatch: %v", got2)
	}
}

func TestAllPrimitiveKinds(t *testing.T) {
	s := Record("All",
		F("b", Boolean()),
		F("i", &Schema{Kind: KindInt}),
		F("l", Long()),
		F("f", &Schema{Kind: KindFloat}),
		F("d", Double()),
		F("s", String()),
		F("y", Bytes()),
		F("n", &Schema{Kind: KindNull}),
	)
	c := MustCodec(s)
	b, err := c.EncodeRow([]any{true, int64(-5), int64(math.MaxInt64), 1.5, -2.25, "héllo", []byte{0, 1, 2}, nil})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if out["b"] != true || out["i"].(int64) != -5 || out["l"].(int64) != math.MaxInt64 {
		t.Fatalf("bad ints: %v", out)
	}
	if out["f"].(float64) != 1.5 || out["d"].(float64) != -2.25 {
		t.Fatalf("bad floats: %v", out)
	}
	if out["s"].(string) != "héllo" || !reflect.DeepEqual(out["y"], []byte{0, 1, 2}) || out["n"] != nil {
		t.Fatalf("bad string/bytes/null: %v", out)
	}
}

func TestNullableFields(t *testing.T) {
	s := Record("N", F("a", Long().AsNullable()), F("b", String().AsNullable()))
	c := MustCodec(s)
	for _, in := range [][]any{
		{int64(5), "x"},
		{nil, "x"},
		{int64(5), nil},
		{nil, nil},
	} {
		b, err := c.EncodeRow(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.DecodeRow(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("nullable mismatch: %v vs %v", in, out)
		}
	}
}

func TestNonNullableRejectsNil(t *testing.T) {
	c := MustCodec(Record("R", F("a", Long())))
	if _, err := c.EncodeRow([]any{nil}); err == nil {
		t.Fatal("nil accepted for non-nullable long")
	}
	if _, err := c.EncodeRow([]any{}); err == nil {
		t.Fatal("missing non-nullable field accepted")
	}
}

func TestCollections(t *testing.T) {
	s := Record("C",
		F("tags", &Schema{Kind: KindArray, Items: String()}),
		F("attrs", &Schema{Kind: KindMap, Items: Long()}),
		F("inner", Record("Inner", F("x", Long()))),
	)
	c := MustCodec(s)
	in := []any{
		[]any{"a", "b", "c"},
		map[string]any{"k1": int64(1), "k2": int64(2)},
		map[string]any{"x": int64(9)},
	}
	b, err := c.EncodeRow(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.DecodeRow(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("collections mismatch:\n in: %v\nout: %v", in, out)
	}
	// Empty collections.
	in2 := []any{[]any{}, map[string]any{}, map[string]any{"x": int64(0)}}
	b2, err := c.EncodeRow(in2)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := c.DecodeRow(b2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in2, out2) {
		t.Fatalf("empty collections mismatch: %v vs %v", in2, out2)
	}
}

func TestReadFieldWithoutFullDecode(t *testing.T) {
	c := MustCodec(ordersSchema())
	b, err := c.EncodeRow([]any{int64(111), int64(222), int64(333), int64(444), "padpad"})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"rowtime": 111, "productId": 222, "orderId": 333, "units": 444,
	} {
		v, err := c.ReadField(b, name)
		if err != nil {
			t.Fatalf("ReadField(%s): %v", name, err)
		}
		if v.(int64) != want {
			t.Fatalf("ReadField(%s) = %v, want %d", name, v, want)
		}
	}
	if s, err := c.ReadField(b, "pad"); err != nil || s.(string) != "padpad" {
		t.Fatalf("ReadField(pad) = %v, %v", s, err)
	}
	if _, err := c.ReadField(b, "missing"); err == nil {
		t.Fatal("ReadField on unknown field succeeded")
	}
}

func TestProjectFields(t *testing.T) {
	in := MustCodec(ordersSchema())
	outSchema := Record("Projected",
		F("rowtime", Long()),
		F("productId", Long()),
		F("units", Long()),
	)
	out := MustCodec(outSchema)
	b, err := in.EncodeRow([]any{int64(1), int64(2), int64(3), int64(4), "x"})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := in.ProjectFields(b, []string{"rowtime", "productId", "units"}, out)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := out.Decode(pb)
	if err != nil {
		t.Fatal(err)
	}
	if rec["rowtime"].(int64) != 1 || rec["productId"].(int64) != 2 || rec["units"].(int64) != 4 {
		t.Fatalf("projected record %v", rec)
	}
}

func TestTruncatedPayload(t *testing.T) {
	c := MustCodec(ordersSchema())
	b, _ := c.EncodeRow([]any{int64(1), int64(2), int64(3), int64(4), "hello world"})
	for cut := 0; cut < len(b); cut++ {
		if _, err := c.Decode(b[:cut]); err == nil {
			t.Fatalf("truncated payload at %d decoded cleanly", cut)
		}
	}
	_ = errors.Is // keep errors imported for future checks
}

func TestSchemaJSONRoundTrip(t *testing.T) {
	s := Record("R",
		F("a", Long()),
		F("b", String().AsNullable()),
		F("c", &Schema{Kind: KindArray, Items: Double()}),
	)
	doc, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"fields":[{"name":"a","type":"long"},{"name":"b","type":["null","string"]},` +
		`{"name":"c","type":{"items":"double","type":"array"}}],"name":"R","type":"record"}`
	if string(doc) != want {
		t.Fatalf("schema JSON\n got %s\nwant %s", doc, want)
	}
}

func TestValidateRejectsDuplicateFields(t *testing.T) {
	s := Record("R", F("a", Long()), F("a", String()))
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate fields: %v", err)
	}
	if _, err := NewCodec(Long()); err == nil {
		t.Fatal("codec accepted non-record schema")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -2, 2, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-tripped to %d", v, got)
		}
	}
	// Avro convention: small magnitudes use few bytes.
	if got := zigzag(-1); got != 1 {
		t.Fatalf("zigzag(-1) = %d, want 1", got)
	}
	if got := zigzag(1); got != 2 {
		t.Fatalf("zigzag(1) = %d, want 2", got)
	}
}
