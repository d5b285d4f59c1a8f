package serde

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"samzasql/internal/vec"
)

// allKinds has one column per SQL type family the planner maps: BIGINT /
// TIMESTAMP / INTERVAL, DOUBLE, VARCHAR, BOOLEAN, and the untyped rest.
var allKinds = []vec.Kind{vec.Int64, vec.Float64, vec.String, vec.Bool, vec.Any}

func roundTrip(t *testing.T, c *RowCodec, row []any) []byte {
	t.Helper()
	enc, err := c.AppendEncode(nil, row)
	if err != nil {
		t.Fatalf("encode %v: %v", row, err)
	}
	got := make([]any, len(row))
	for i := range got {
		got[i] = "stale" // decode must overwrite every slot, NULLs included
	}
	if err := c.Decode(enc, got); err != nil {
		t.Fatalf("decode %v (% x): %v", row, enc, err)
	}
	if !reflect.DeepEqual(got, row) {
		t.Fatalf("round trip of %v gave %v (% x)", row, got, enc)
	}
	return enc
}

func TestRowCodecRoundTripEveryKind(t *testing.T) {
	c := NewRowCodec(allKinds)
	rows := [][]any{
		{int64(0), 0.0, "", false, nil},
		{int64(-1), -1.5, "x", true, int64(7)},
		{int64(math.MaxInt64), math.MaxFloat64, "héllo, wörld", true, "any"},
		{int64(math.MinInt64), math.Inf(-1), string(make([]byte, 300)), false, []any{int64(1), "nested", nil}},
		{int64(1_600_000_000_000), 3.25, "product-17", true, []byte{0, 1, 2}},
	}
	for _, row := range rows {
		roundTrip(t, c, row)
	}
}

// TestRowCodecNullInEveryPosition sets every subset of columns to NULL.
func TestRowCodecNullInEveryPosition(t *testing.T) {
	c := NewRowCodec(allKinds)
	full := []any{int64(42), 2.5, "s", true, int64(9)}
	for mask := 0; mask < 1<<len(full); mask++ {
		row := append([]any(nil), full...)
		for i := range row {
			if mask&(1<<i) != 0 {
				row[i] = nil
			}
		}
		roundTrip(t, c, row)
	}
}

// TestRowCodecWideRow crosses the one-byte bitmap boundary: 7, 8 and 9
// columns put the escape flag in the first, second and second header byte.
func TestRowCodecWideRow(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17} {
		kinds := make([]vec.Kind, n)
		row := make([]any, n)
		for i := range kinds {
			kinds[i] = vec.Int64
			if i%3 != 0 {
				row[i] = int64(i * 1000)
			}
		}
		c := NewRowCodec(kinds)
		roundTrip(t, c, row)
		if n > 0 {
			row[n-1] = "not an int" // escape in the last column
			roundTrip(t, c, row)
		}
	}
}

// TestRowCodecEscapesUndeclaredDynamicType writes values whose dynamic type
// is not the column's declared one: each must come back unchanged, and a row
// without such values must not pay for the escape bitmap.
func TestRowCodecEscapesUndeclaredDynamicType(t *testing.T) {
	c := NewRowCodec(allKinds)
	const escapeFlag = 1 << 5 // bit n of the null bitmap, n = 5 columns
	if typed := roundTrip(t, c, []any{int64(1), 1.0, "a", true, []any{"untyped"}}); typed[0]&escapeFlag != 0 {
		t.Errorf("well-typed row carries the escape bitmap: % x", typed)
	}
	cases := [][]any{
		{"string in a BIGINT column", 1.0, "a", true, nil},
		{int64(1), int64(2), "a", true, nil},
		{int64(1), 1.0, int64(3), true, nil},
		{int64(1), 1.0, "a", "yes", nil},
		{3.5, "x", false, int64(0), nil},
		{[]any{int64(1)}, []byte("raw"), nil, 2.0, nil},
	}
	for _, row := range cases {
		if enc := roundTrip(t, c, row); enc[0]&escapeFlag == 0 {
			t.Errorf("row %v with an undeclared dynamic type has no escape bitmap: % x", row, enc)
		}
	}
	// A value ObjectSerde cannot encode either is an error, not a panic.
	if _, err := c.AppendEncode(nil, []any{struct{}{}, nil, nil, nil, nil}); err == nil {
		t.Fatal("unencodable value accepted")
	}
}

func TestRowCodecArityMismatch(t *testing.T) {
	c := NewRowCodec(allKinds)
	if _, err := c.AppendEncode(nil, []any{int64(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	enc, _ := c.AppendEncode(nil, []any{int64(1), 1.0, "a", true, nil})
	if err := c.Decode(enc, make([]any, 2)); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestRowCodecCorruptInput truncates a valid encoding at every length and
// flips it in ways that must be detected: decode returns an error, never
// panics and never reads past the payload.
func TestRowCodecCorruptInput(t *testing.T) {
	c := NewRowCodec(allKinds)
	rows := [][]any{
		{int64(123456789), 2.5, "some string", true, []any{int64(1), "x"}},
		{"escaped", nil, "s", nil, nil},
	}
	dst := make([]any, len(allKinds))
	for _, row := range rows {
		enc, err := c.AppendEncode(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if err := c.Decode(enc[:cut], dst); !errors.Is(err, ErrCorruptRow) {
				t.Errorf("row %v truncated to %d of %d bytes: err = %v, want ErrCorruptRow", row, cut, len(enc), err)
			}
		}
		if err := c.Decode(append(append([]byte(nil), enc...), 0), dst); !errors.Is(err, ErrCorruptRow) {
			t.Errorf("trailing byte after %v: err = %v, want ErrCorruptRow", row, err)
		}
	}
	// A string length that runs past the payload, including one that would
	// overflow int.
	strOnly := NewRowCodec([]vec.Kind{vec.String})
	for _, bad := range [][]byte{
		{0x00, 0x05, 'a'},
		{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0x02, 0x01, 0xff}, // escape flag set, escape payload is garbage
	} {
		if err := strOnly.Decode(bad, make([]any, 1)); !errors.Is(err, ErrCorruptRow) {
			t.Errorf("% x: err = %v, want ErrCorruptRow", bad, err)
		}
	}
}

// TestRowCodecAppendsAfterExistingBytes pins that AppendEncode only appends:
// an arena of back-to-back rows decodes row by row.
func TestRowCodecAppendsAfterExistingBytes(t *testing.T) {
	c := NewRowCodec([]vec.Kind{vec.Int64, vec.String})
	var arena []byte
	var ends []int
	rows := [][]any{{int64(1), "a"}, {nil, "bb"}, {int64(3), nil}, {"esc", "c"}}
	for _, row := range rows {
		var err error
		if arena, err = c.AppendEncode(arena, row); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(arena))
	}
	start := 0
	got := make([]any, 2)
	for i, end := range ends {
		if err := c.Decode(arena[start:end], got); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got, rows[i])
		}
		start = end
	}
}

// FuzzRowCodecDecode feeds arbitrary bytes to Decode. Decode must return
// an error or a row, never panic, and a row it accepts must survive a
// further round trip unchanged.
func FuzzRowCodecDecode(f *testing.F) {
	c := NewRowCodec(allKinds)
	for _, row := range [][]any{
		{int64(1), 2.5, "s", true, []any{int64(1)}},
		{nil, nil, nil, nil, nil},
		{"esc", int64(1), 3.0, "b", []byte{1}},
		{int64(-5), int64(4), "", false, 2.5},
	} {
		enc, err := c.AppendEncode(nil, row)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		row := make([]any, len(allKinds))
		if err := c.Decode(data, row); err != nil {
			return
		}
		enc, err := c.AppendEncode(nil, row)
		if err != nil {
			t.Fatalf("decoded row %v does not re-encode: %v", row, err)
		}
		again := make([]any, len(allKinds))
		if err := c.Decode(enc, again); err != nil {
			t.Fatalf("re-encoded row %v does not decode: %v", row, err)
		}
		if !equalRows(row, again) {
			t.Fatalf("round trip changed %v to %v", row, again)
		}
	})
}

// equalRows is reflect.DeepEqual with NaN equal to itself, which fuzzed
// float payloads produce.
func equalRows(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case float64:
			y, ok := b[i].(float64)
			if !ok || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		case []any:
			y, ok := b[i].([]any)
			if !ok || !equalRows(x, y) {
				return false
			}
		default:
			if !reflect.DeepEqual(a[i], b[i]) {
				return false
			}
		}
	}
	return true
}
