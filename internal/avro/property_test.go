package avro

import (
	"reflect"
	"testing"
	"testing/quick"
)

// Property: arbitrary rows of (long, long, string, bool, double) round-trip
// exactly through EncodeRow/DecodeRow.
func TestPropertyRowRoundTrip(t *testing.T) {
	c := MustCodec(Record("P",
		F("a", Long()),
		F("b", Long()),
		F("c", String()),
		F("d", Boolean()),
		F("e", Double()),
	))
	f := func(a, b int64, s string, d bool, e float64) bool {
		row := []any{a, b, s, d, e}
		enc, err := c.EncodeRow(row)
		if err != nil {
			return false
		}
		dec, err := c.DecodeRow(enc, nil)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(row, dec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadField always agrees with a full decode, for every field.
func TestPropertyReadFieldMatchesDecode(t *testing.T) {
	c := MustCodec(Record("P",
		F("x", Long()),
		F("y", String()),
		F("z", Long().AsNullable()),
		F("w", Double()),
	))
	f := func(x int64, y string, zSet bool, z int64, w float64) bool {
		var zv any
		if zSet {
			zv = z
		}
		row := []any{x, y, zv, w}
		enc, err := c.EncodeRow(row)
		if err != nil {
			return false
		}
		full, err := c.Decode(enc)
		if err != nil {
			return false
		}
		for _, name := range []string{"x", "y", "z", "w"} {
			v, err := c.ReadField(enc, name)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(v, full[name]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: zigzag varint encoding round-trips all int64 values.
func TestPropertyZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := appendVarint(nil, v)
		got, n, err := readVarint(b)
		return err == nil && n == len(b) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: nullable string fields survive nil/value alternation and decoded
// maps re-encode to identical bytes (canonical encoding).
func TestPropertyCanonicalReencode(t *testing.T) {
	c := MustCodec(Record("P",
		F("a", String().AsNullable()),
		F("b", Long()),
	))
	f := func(set bool, s string, b int64) bool {
		var av any
		if set {
			av = s
		}
		enc1, err := c.EncodeRow([]any{av, b})
		if err != nil {
			return false
		}
		rec, err := c.Decode(enc1)
		if err != nil {
			return false
		}
		enc2, err := c.EncodeRow([]any{rec["a"], rec["b"]})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(enc1, enc2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
