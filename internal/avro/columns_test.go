package avro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"samzasql/internal/vec"
)

// kindsFor maps each field of a record schema to the vector kind of the SQL
// column it backs: the inverse of catalog.AvroSchemaFor, then vec.KindOf.
func kindsFor(s *Schema) []vec.Kind {
	kinds := make([]vec.Kind, len(s.Fields))
	for i, f := range s.Fields {
		switch f.Schema.Kind {
		case KindLong, KindInt:
			kinds[i] = vec.Int64
		case KindDouble, KindFloat:
			kinds[i] = vec.Float64
		case KindBoolean:
			kinds[i] = vec.Bool
		case KindString:
			kinds[i] = vec.String
		}
	}
	return kinds
}

// fuzzSchemas are the record schemas of the three workload streams (Orders,
// Products, and the benchmark's Clicks), each also in an all-nullable form
// (the shape of every output codec), plus one record with every primitive
// kind.
func fuzzSchemas() []*Schema {
	products := Record("Products", F("productId", Long()), F("name", String()), F("supplierId", Long()))
	clicks := Record("Clicks", F("rowtime", Long()), F("userId", Long()), F("productId", Long()),
		F("clickId", Long()), F("pad", String()))
	kinds := Record("Kinds", F("b", Boolean()), F("i", &Schema{Kind: KindInt}), F("l", Long().AsNullable()),
		F("f", &Schema{Kind: KindFloat}), F("d", Double().AsNullable()), F("s", String().AsNullable()), F("y", Bytes()),
		F("a", &Schema{Kind: KindArray, Items: Long()}))
	out := []*Schema{kinds}
	for _, s := range []*Schema{ordersSchema(), products, clicks} {
		nullable := make([]Field, len(s.Fields))
		for i, f := range s.Fields {
			nullable[i] = F(f.Name, f.Schema.AsNullable())
		}
		out = append(out, s, Record(s.Name+"Nullable", nullable...))
	}
	return out
}

// hugeLength is a length prefix of 2^63-1: pos+int(ln) used to overflow to
// a negative bound that passed the truncation check.
func hugeLength() []byte {
	return append(binary.AppendUvarint(nil, zigzag(math.MaxInt64)), 'x')
}

func TestCorruptLengthPrefixIsTruncated(t *testing.T) {
	for _, s := range []*Schema{
		Record("S", F("s", String())),
		Record("B", F("b", Bytes())),
		Record("M", F("m", &Schema{Kind: KindMap, Items: Long()})),
	} {
		c := MustCodec(s)
		data := hugeLength()
		if s.Fields[0].Schema.Kind == KindMap {
			data = append([]byte{2}, data...) // one entry, then its key length
		}
		if _, err := c.DecodeRow(data, nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: DecodeRow = %v, want ErrTruncated", s.Name, err)
		}
		if _, err := c.ReadFields(data, []bool{false, true}, nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: ReadFields skipping = %v, want ErrTruncated", s.Name, err)
		}
		if _, err := c.ReadField(data, s.Fields[0].Name); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: ReadField = %v, want ErrTruncated", s.Name, err)
		}
		dec, err := c.NewColumnDecoder(kindsFor(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]vec.Vec, 1)
		dec.Reset(cols, 1)
		if err := dec.Decode(data, cols, 0); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: column decode = %v, want ErrTruncated", s.Name, err)
		}
	}
}

// TestColumnCodecMatchesRowCodec pins the column encoder byte for byte to
// AppendEncodeRow, and the column decoder value for value to DecodeRow,
// over every kind with and without NULLs.
func TestColumnCodecMatchesRowCodec(t *testing.T) {
	s := fuzzSchemas()[0]
	rows := [][]any{
		{true, int64(-7), int64(1 << 40), 1.5, math.Inf(-1), "héllo", []byte{0, 1}, []any{int64(3)}},
		{false, int64(math.MaxInt32), nil, float64(float32(0.1)), nil, nil, []byte{}, []any{}},
		{true, int64(0), int64(-1), 0.0, math.NaN(), "", []byte("z"), []any{int64(1), int64(2)}},
	}
	c := MustCodec(s)
	kinds := kindsFor(s)
	enc, err := c.NewColumnEncoder(kinds)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.NewColumnDecoder(kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]vec.Vec, len(kinds))
	dec.Reset(cols, len(rows))
	for r, row := range rows {
		want, err := c.EncodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(want, cols, r); err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
		got, err := enc.AppendRow(nil, cols, r)
		if err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
		if string(got) != string(want) {
			t.Fatalf("row %d: column encoding %x, row encoding %x", r, got, want)
		}
		boxed, err := c.DecodeRow(want, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range boxed {
			if !sameValue(cols[i].Value(r), boxed[i]) {
				t.Fatalf("row %d field %d: column %#v, row %#v", r, i, cols[i].Value(r), boxed[i])
			}
		}
	}
	// An int field refuses what AppendEncodeRow refuses.
	cols[1].I64[0] = math.MaxInt32 + 1
	if _, err := enc.AppendRow(nil, cols, 0); err == nil {
		t.Fatal("column encoder accepted an int out of int32 range")
	}
}

func sameValue(a, b any) bool {
	if x, ok := a.(float64); ok {
		if y, ok := b.(float64); ok {
			return math.Float64bits(x) == math.Float64bits(y)
		}
	}
	return reflect.DeepEqual(a, b)
}

// FuzzAvroDecode is the differential target for the three Avro readers a
// scan can use: for arbitrary bytes, the typed column decode must fail
// exactly where DecodeRow fails (ReadFields, when mask skips fields) and
// otherwise agree with it value for value — NULL and absent slots included.
// The re-keying stage's field walk, keeping the fields of mask and keyed by a
// field pick chooses, is held to ReadFields and ReadField the same way
// (checkFieldWalk). None of them may panic.
func FuzzAvroDecode(f *testing.F) {
	schemas := fuzzSchemas()
	f.Add(uint8(0), uint8(0), hugeLength())
	f.Add(uint8(1), uint8(0xff), hugeLength())
	// Clicks keyed by productId and keeping it alone, so the walk skips a
	// ten-byte rowtime varint: the longest valid one, and one whose tenth
	// byte overflows 64 bits.
	longest := append(bytes.Repeat([]byte{0xff}, 9), 0x01, 2, 4, 6, 8)
	f.Add(uint8(5+2*7), uint8(0b100), longest)
	f.Add(uint8(5+2*7), uint8(0b100), append(bytes.Repeat([]byte{0xff}, 9), 0x02, 2, 4, 6, 8))
	for i, s := range schemas {
		row := make([]any, len(s.Fields))
		for j, fl := range s.Fields {
			switch fl.Schema.Kind {
			case KindLong, KindInt:
				row[j] = int64(j*1000 - 3)
			case KindDouble, KindFloat:
				row[j] = 0.25
			case KindBoolean:
				row[j] = true
			case KindString:
				row[j] = "pad-pad"
			case KindBytes:
				row[j] = []byte("by")
			case KindArray:
				row[j] = []any{int64(5)}
			}
			if fl.Schema.Nullable && j%2 == 1 {
				row[j] = nil
			}
		}
		data, err := MustCodec(s).EncodeRow(row)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), uint8(0), data)
		f.Add(uint8(i), uint8(0b10101), data)
		f.Add(uint8(i), uint8(0), data[:len(data)/2])
		// Walks keyed by field 2 keeping a set with a gap, on the whole
		// record and with its last byte cut.
		keyed := uint8(i + 2*len(schemas))
		f.Add(keyed, uint8(0b1011), data)
		f.Add(keyed, uint8(0b1011), data[:len(data)-1])
	}
	f.Fuzz(func(t *testing.T, pick, mask uint8, data []byte) {
		s := schemas[int(pick)%len(schemas)]
		c := MustCodec(s)
		var wanted []bool
		if mask != 0 {
			wanted = make([]bool, len(s.Fields))
			for i := range wanted {
				wanted[i] = mask&(1<<i) != 0
			}
		}
		var row []any
		var rowErr error
		if wanted == nil {
			row, rowErr = c.DecodeRow(data, nil)
		} else {
			row, rowErr = c.ReadFields(data, wanted, nil)
		}
		dec, err := c.NewColumnDecoder(kindsFor(s), wanted)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]vec.Vec, len(s.Fields))
		dec.Reset(cols, 2)
		colErr := dec.Decode(data, cols, 1)
		checkFieldWalk(t, c, mask, data, int(pick)/len(schemas)%len(s.Fields))
		if (rowErr == nil) != (colErr == nil) {
			t.Fatalf("%s mask %08b: row decode error %v, column decode error %v", s.Name, mask, rowErr, colErr)
		}
		if rowErr != nil {
			return
		}
		for i := range row {
			if wanted != nil && !wanted[i] && !cols[i].Absent {
				t.Fatalf("%s field %d: skipped but not absent", s.Name, i)
			}
			if got := cols[i].Value(1); !sameValue(got, row[i]) {
				t.Fatalf("%s mask %08b field %d: column %#v, row %#v", s.Name, mask, i, got, row[i])
			}
		}
	})
}

// checkFieldWalk holds the re-keying walk that keeps the fields marked in
// mask (none when mask is 0) and keys by field key to the boxed reads: it
// fails exactly where ReadFields of the kept fields and the key fails, and
// otherwise its projected bytes are the kept fields' wire spans, which the
// projection decoder turns back into ReadFields' value for each kept
// column (the others absent), and its key is the text of ReadField's value.
func checkFieldWalk(t *testing.T, c *Codec, mask uint8, data []byte, key int) {
	t.Helper()
	s := c.Schema()
	var keep []bool
	read := make([]bool, len(s.Fields))
	if mask != 0 {
		keep = make([]bool, len(s.Fields))
		for i := range keep {
			keep[i] = mask&(1<<i) != 0
			read[i] = keep[i]
		}
	}
	read[key] = true
	w, err := c.NewFieldWalk(keep, s.Fields[key].Name)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("dst")
	value, text, walkErr := w.Walk(prefix, []byte("key:"), data)
	row, rowErr := c.ReadFields(data, read, nil)
	if (rowErr == nil) != (walkErr == nil) {
		t.Fatalf("%s keep %08b key %d: ReadFields error %v, walk error %v", s.Name, mask, key, rowErr, walkErr)
	}
	if rowErr != nil {
		return
	}
	if want := "key:" + string(keyText(nil, row[key])); string(text) != want {
		t.Fatalf("%s key %d: text %q, want %q", s.Name, key, text, want)
	}
	if string(value[:len(prefix)]) != "dst" {
		t.Fatalf("%s: walk overwrote dst", s.Name)
	}
	value = value[len(prefix):]
	if keep == nil {
		if len(value) != 0 {
			t.Fatalf("%s: walk keeping nothing copied %x", s.Name, value)
		}
		return
	}
	dec, err := c.NewProjectionDecoder(kindsFor(s), keep)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]vec.Vec, len(s.Fields))
	dec.Reset(cols, 1)
	if err := dec.Decode(value, cols, 0); err != nil {
		t.Fatalf("%s keep %08b: projected record %x: %v", s.Name, mask, value, err)
	}
	for i, k := range keep {
		if cols[i].Absent == k {
			t.Fatalf("%s keep %08b column %d: absent %v", s.Name, mask, i, cols[i].Absent)
		}
		if got := cols[i].Value(0); k && !sameValue(got, row[i]) {
			t.Fatalf("%s keep %08b column %d: projected %#v, source %#v", s.Name, mask, i, got, row[i])
		}
	}
	// Byte for byte, the projection is the kept fields' wire spans, as
	// skipValue delimits them, back to back.
	var spans []byte
	pos := 0
	for i, k := range keep {
		n, err := skipValue(data[pos:], s.Fields[i].Schema)
		if err != nil {
			break // past the last kept field: never read
		}
		if k {
			spans = append(spans, data[pos:pos+n]...)
		}
		pos += n
	}
	if string(value) != string(spans) {
		t.Fatalf("%s keep %08b: projected bytes %x, kept spans %x", s.Name, mask, value, spans)
	}
}

// keyText is the text a re-keying stage keys a message by: fmt's %v of the
// boxed field value, with strconv for the scalar types.
func keyText(dst []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case string:
		return append(dst, x...)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(dst, x)
	}
	return fmt.Appendf(dst, "%v", v)
}

// benchOrders is a block of encoded Orders records, the scan's input.
func benchOrders(b *testing.B) (*Codec, [][]byte, [][]any) {
	b.Helper()
	c := MustCodec(ordersSchema())
	msgs := make([][]byte, 256)
	rows := make([][]any, len(msgs))
	for i := range msgs {
		rows[i] = []any{int64(1_600_000_000_000 + 10*i), int64(i % 100), int64(i * 7919), int64(i%100 + 1), "padpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadp"}
		var err error
		if msgs[i], err = c.EncodeRow(rows[i]); err != nil {
			b.Fatal(err)
		}
	}
	return c, msgs, rows
}

// BenchmarkDecode compares the boxed row decode with the typed column
// decode of the same records, all five fields.
func BenchmarkDecode(b *testing.B) {
	c, msgs, _ := benchOrders(b)
	b.Run("row", func(b *testing.B) {
		var row []any
		var err error
		for i := 0; i < b.N; i++ {
			if row, err = c.DecodeRow(msgs[i%len(msgs)], row); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columns", func(b *testing.B) {
		dec, err := c.NewColumnDecoder(kindsFor(c.Schema()), nil)
		if err != nil {
			b.Fatal(err)
		}
		cols := make([]vec.Vec, len(c.Schema().Fields))
		for i := 0; i < b.N; i++ {
			r := i % len(msgs)
			if r == 0 {
				dec.Reset(cols, len(msgs))
			}
			if err := dec.Decode(msgs[r], cols, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncode compares the boxed row encode with the typed column
// encode of the same rows.
func BenchmarkEncode(b *testing.B) {
	c, msgs, rows := benchOrders(b)
	b.Run("row", func(b *testing.B) {
		var buf []byte
		var err error
		for i := 0; i < b.N; i++ {
			if buf, err = c.AppendEncodeRow(buf[:0], rows[i%len(rows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columns", func(b *testing.B) {
		kinds := kindsFor(c.Schema())
		dec, _ := c.NewColumnDecoder(kinds, nil)
		enc, err := c.NewColumnEncoder(kinds)
		if err != nil {
			b.Fatal(err)
		}
		cols := make([]vec.Vec, len(kinds))
		dec.Reset(cols, len(msgs))
		for r, m := range msgs {
			if err := dec.Decode(m, cols, r); err != nil {
				b.Fatal(err)
			}
		}
		var buf []byte
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = enc.AppendRow(buf[:0], cols, i%len(msgs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
