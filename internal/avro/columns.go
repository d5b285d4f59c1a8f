package avro

import (
	"encoding/binary"
	"fmt"
	"math"

	"samzasql/internal/vec"
)

// colOp is how one top-level field moves between the wire and its column
// vector, chosen once per (field schema, vector kind) pair.
type colOp uint8

const (
	opSkip   colOp = iota // not decoded: skipped on the wire, vector absent
	opLong                // int/long field ↔ Int64 vector
	opInt                 // int field from an Int64 vector (range-checked)
	opDouble              // double field ↔ Float64 vector
	opFloat               // float field ↔ Float64 vector
	opBool                // boolean field ↔ Bool vector
	opString              // string field ↔ String vector
	opBoxed               // anything else: the boxed codec path + Vec.Set/Value
)

type colField struct {
	name   string
	schema *Schema
	op     colOp
	// col is the column vector the field fills: its own index, also where
	// the record on the wire carries a subset of the fields
	// (NewProjectionDecoder).
	col      int
	nullable bool
}

// rangeErr reports an int field's value outside int32, as AppendEncodeRow
// does.
func (f *colField) rangeErr(n int64) error {
	return fmt.Errorf("avro: field %q: %w", f.name, typeErr("int32", n))
}

func columnOp(s *Schema, k vec.Kind) colOp {
	switch {
	case s.Kind == KindLong && k == vec.Int64:
		return opLong
	case s.Kind == KindInt && k == vec.Int64:
		return opInt
	case s.Kind == KindDouble && k == vec.Float64:
		return opDouble
	case s.Kind == KindFloat && k == vec.Float64:
		return opFloat
	case s.Kind == KindBoolean && k == vec.Bool:
		return opBool
	case s.Kind == KindString && k == vec.String:
		return opString
	}
	return opBoxed
}

func (c *Codec) columnFields(kinds []vec.Kind) ([]colField, error) {
	if len(kinds) != len(c.schema.Fields) {
		return nil, fmt.Errorf("avro: %d column kinds for record %q of %d fields",
			len(kinds), c.schema.Name, len(c.schema.Fields))
	}
	fields := make([]colField, len(kinds))
	for i, f := range c.schema.Fields {
		fields[i] = newColField(f, kinds[i], i)
	}
	return fields, nil
}

func newColField(f Field, k vec.Kind, col int) colField {
	return colField{name: f.Name, schema: f.Schema, op: columnOp(f.Schema, k), col: col, nullable: f.Schema.Nullable}
}

// ColumnDecoder decodes records of one schema straight into kind-typed
// column vectors — the AvroToArray step of Figure 4 without the array: a
// long lands in an []int64, a string's bytes in its vector's arena, and only
// fields of no fixed layout are boxed. It reads exactly what DecodeRow reads
// (ReadFields, when some fields are skipped) and fails where they fail.
type ColumnDecoder struct {
	fields []colField
	// kinds and absent describe the row's columns: each column's vector
	// kind, and whether no decoded field fills it.
	kinds  []vec.Kind
	absent []bool
	// last is the highest decoded field; the wire past it is never read.
	last int
}

// NewColumnDecoder compiles a decoder writing field i into a vector of
// kinds[i]. wanted, when non-nil, marks the fields to decode; the others
// are skipped on the wire and their vectors marked absent.
func (c *Codec) NewColumnDecoder(kinds []vec.Kind, wanted []bool) (*ColumnDecoder, error) {
	fields, err := c.columnFields(kinds)
	if err != nil {
		return nil, err
	}
	d := &ColumnDecoder{fields: fields, kinds: append([]vec.Kind(nil), kinds...), absent: make([]bool, len(kinds)), last: len(fields) - 1}
	if wanted != nil {
		d.last = -1
		for i := range fields {
			if i < len(wanted) && wanted[i] {
				d.last = i
			} else {
				fields[i].op = opSkip
				d.absent[i] = true
			}
		}
	}
	return d, nil
}

// NewProjectionDecoder compiles a decoder of the records a FieldWalk
// keeping the fields marked in keep writes — c's kept fields, in order, such
// as a re-keying stage's projected stream — into vectors laid out as c's
// whole record: each kept field fills the column it came from, a vector of
// kinds[column], and the other columns are marked absent, as if skipped.
func (c *Codec) NewProjectionDecoder(kinds []vec.Kind, keep []bool) (*ColumnDecoder, error) {
	fields, err := c.columnFields(kinds)
	if err != nil {
		return nil, err
	}
	d := &ColumnDecoder{kinds: append([]vec.Kind(nil), kinds...), absent: make([]bool, len(kinds))}
	for i := range fields {
		if i < len(keep) && keep[i] {
			d.fields = append(d.fields, fields[i])
		} else {
			d.absent[i] = true
		}
	}
	d.last = len(d.fields) - 1
	return d, nil
}

// Reset sizes cols (one per column) for n records, marking the columns no
// decoded field fills absent, reusing every vector's arenas.
func (d *ColumnDecoder) Reset(cols []vec.Vec, n int) {
	for i, k := range d.kinds {
		cols[i].Reset(k, n, d.absent[i])
	}
}

// Decode decodes one record into row r of cols. Trailing bytes past the
// last decoded field are not read, as with DecodeRow and ReadFields.
//
//samzasql:hotpath
func (d *ColumnDecoder) Decode(data []byte, cols []vec.Vec, r int) error {
	pos := 0
	for i := 0; i <= d.last; i++ {
		f := &d.fields[i]
		switch f.op {
		case opSkip:
			n, err := skipValue(data[pos:], f.schema)
			if err != nil {
				return fmt.Errorf("avro: skipping field %q: %w", f.name, err)
			}
			pos += n
			continue
		case opBoxed:
			v, n, err := decodeValue(data[pos:], f.schema)
			if err != nil {
				return fmt.Errorf("avro: field %q: %w", f.name, err)
			}
			pos += n
			if err := cols[f.col].Set(r, v); err != nil {
				return fmt.Errorf("avro: field %q: %w", f.name, err)
			}
			continue
		}
		col := &cols[f.col]
		if f.nullable {
			branch, n, err := readVarint(data[pos:])
			if err != nil {
				return fmt.Errorf("avro: field %q: %w", f.name, err)
			}
			pos += n
			if branch == 0 {
				col.SetNull(r)
				continue
			}
		}
		switch f.op {
		case opLong, opInt:
			var u uint64
			if pos < len(data) && data[pos] < 0x80 {
				u = uint64(data[pos])
				pos++
			} else {
				var n int
				if u, n = binary.Uvarint(data[pos:]); n <= 0 {
					return fmt.Errorf("avro: field %q: %w", f.name, ErrTruncated)
				}
				pos += n
			}
			col.I64[r] = unzigzag(u)
		case opDouble:
			if len(data)-pos < 8 {
				return fmt.Errorf("avro: field %q: %w", f.name, ErrTruncated)
			}
			col.F64[r] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		case opFloat:
			if len(data)-pos < 4 {
				return fmt.Errorf("avro: field %q: %w", f.name, ErrTruncated)
			}
			col.F64[r] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[pos:])))
			pos += 4
		case opBool:
			if pos >= len(data) {
				return fmt.Errorf("avro: field %q: %w", f.name, ErrTruncated)
			}
			col.Bools[r] = data[pos] != 0
			pos++
		case opString:
			ln, n, err := readVarint(data[pos:])
			if err != nil {
				return fmt.Errorf("avro: field %q: %w", f.name, err)
			}
			pos += n
			if ln < 0 || ln > int64(len(data)-pos) {
				return fmt.Errorf("avro: field %q: %w", f.name, ErrTruncated)
			}
			if err := col.SetStr(r, data[pos:pos+int(ln)]); err != nil {
				return err
			}
			pos += int(ln)
		}
	}
	return nil
}

// ColumnEncoder encodes rows held in kind-typed column vectors — the
// ArrayToAvro step without the array. Its output is byte-identical to
// AppendEncodeRow over the same rows boxed, nullable branch bytes included.
type ColumnEncoder struct {
	fields []colField
}

// NewColumnEncoder compiles an encoder reading field i from a vector of
// kinds[i].
func (c *Codec) NewColumnEncoder(kinds []vec.Kind) (*ColumnEncoder, error) {
	fields, err := c.columnFields(kinds)
	if err != nil {
		return nil, err
	}
	return &ColumnEncoder{fields: fields}, nil
}

// AppendRow appends the encoding of row r of cols to dst.
//
//samzasql:hotpath
func (e *ColumnEncoder) AppendRow(dst []byte, cols []vec.Vec, r int) ([]byte, error) {
	for i := range e.fields {
		f := &e.fields[i]
		col := &cols[i]
		if f.op == opBoxed {
			var err error
			if dst, err = encodeValue(dst, f.schema, col.Value(r)); err != nil {
				return nil, fmt.Errorf("avro: field %q: %w", f.name, err)
			}
			continue
		}
		if col.IsNull(r) {
			if !f.nullable {
				return nil, fmt.Errorf("avro: field %q: nil value for non-nullable %s", f.name, f.schema.Kind)
			}
			dst = append(dst, 0) // union branch 0 = null
			continue
		}
		if f.nullable {
			dst = append(dst, 2) // zigzag(1): branch 1 = value
		}
		switch f.op {
		case opLong:
			dst = appendVarint(dst, col.I64[r])
		case opInt:
			n := col.I64[r]
			if n > math.MaxInt32 || n < math.MinInt32 {
				return nil, f.rangeErr(n)
			}
			dst = appendVarint(dst, n)
		case opDouble:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(col.F64[r]))
		case opFloat:
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(col.F64[r])))
		case opBool:
			b := byte(0)
			if col.Bools[r] {
				b = 1
			}
			dst = append(dst, b)
		case opString:
			s := col.Str(r)
			dst = appendVarint(dst, int64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst, nil
}
