package avro

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// walkOp is how a FieldWalk steps over one top-level field's value, chosen
// once per field schema.
type walkOp uint8

const (
	walkVarint walkOp = iota // int, long: one zigzag varint
	walkLength               // string, bytes: a length prefix, then that many bytes
	walkFixed                // double, float, boolean: width bytes
	walkValue                // anything else, union branch included: skipValue
)

type walkField struct {
	name   string
	schema *Schema
	op     walkOp
	// width is a walkFixed field's byte count.
	width    int
	nullable bool
	keep     bool
}

// FieldWalk steps once over a record's wire bytes, decoding nothing: it
// copies the byte spans of the kept fields into an outgoing record, one
// append per run of adjacent kept fields, and renders one key field as
// text. It reads no further than the last field it needs. This is the
// re-keying stage's whole per-message work: a projection pushed below the
// exchange costs a copy, not a decode and an encode. A FieldWalk is
// immutable once compiled.
type FieldWalk struct {
	// fields runs up to the last kept field or the key, whichever is later.
	fields []walkField
	key    int
}

// NewFieldWalk compiles the walk of c's records that keeps the fields
// marked in keep (index-aligned with the schema; nil keeps none) and
// renders the field named key as text.
func (c *Codec) NewFieldWalk(keep []bool, key string) (*FieldWalk, error) {
	idx := c.schema.FieldIndex(key)
	if idx < 0 {
		return nil, fmt.Errorf("avro: record %q has no field %q", c.schema.Name, key)
	}
	if keep != nil && len(keep) != len(c.schema.Fields) {
		return nil, fmt.Errorf("avro: %d keep marks for record %q of %d fields",
			len(keep), c.schema.Name, len(c.schema.Fields))
	}
	stop := idx
	for i, k := range keep {
		if k {
			stop = max(stop, i)
		}
	}
	w := &FieldWalk{fields: make([]walkField, stop+1), key: idx}
	for i := range w.fields {
		f := c.schema.Fields[i]
		wf := walkField{name: f.Name, schema: f.Schema, nullable: f.Schema.Nullable, keep: keep != nil && keep[i]}
		switch f.Schema.Kind {
		case KindInt, KindLong:
			wf.op = walkVarint
		case KindString, KindBytes:
			wf.op = walkLength
		case KindDouble:
			wf.op, wf.width = walkFixed, 8
		case KindFloat:
			wf.op, wf.width = walkFixed, 4
		case KindBoolean:
			wf.op, wf.width = walkFixed, 1
		default:
			wf.op, wf.nullable = walkValue, false // skipValue reads the branch
		}
		w.fields[i] = wf
	}
	return w, nil
}

// Walk appends to dst the wire bytes of data's kept fields, in field order —
// a record NewProjectionDecoder decodes — and to key the text of the key field: what fmt's %v prints for the value
// ReadField returns, "<nil>" for a NULL, with strconv for the scalar kinds.
// It fails where ReadField of the key or ReadFields of the kept fields
// fails, and never reads past the last field it needs.
//
//samzasql:hotpath
func (w *FieldWalk) Walk(dst, key, data []byte) ([]byte, []byte, error) {
	pos, run := 0, -1 // run: where the pending run of kept fields starts
	for i := range w.fields {
		f := &w.fields[i]
		start := pos
		if f.keep {
			if run < 0 {
				run = start
			}
		} else if run >= 0 {
			dst = append(dst, data[run:start]...)
			run = -1
		}
		null := false
		if f.nullable {
			branch, n, err := readVarint(data[pos:])
			if err != nil {
				return dst, key, f.err(err)
			}
			pos += n
			null = branch == 0 // any other branch is the value
		}
		isKey := i == w.key
		if null {
			if isKey {
				key = append(key, "<nil>"...)
			}
			continue
		}
		switch f.op {
		case walkVarint:
			if isKey {
				u, n := binary.Uvarint(data[pos:])
				if n <= 0 {
					return dst, key, f.err(ErrTruncated)
				}
				pos += n
				key = strconv.AppendInt(key, unzigzag(u), 10)
				break
			}
			var ok bool
			if pos, ok = skipVarint(data, pos); !ok {
				return dst, key, f.err(ErrTruncated)
			}
		case walkLength:
			ln, n, err := readVarint(data[pos:])
			if err != nil {
				return dst, key, f.err(err)
			}
			pos += n
			if ln < 0 || ln > int64(len(data)-pos) {
				return dst, key, f.err(ErrTruncated)
			}
			if isKey && f.schema.Kind == KindString {
				key = append(key, data[pos:pos+int(ln)]...)
			}
			pos += int(ln)
		case walkFixed:
			if len(data)-pos < f.width {
				return dst, key, f.err(ErrTruncated)
			}
			pos += f.width
		case walkValue:
			n, err := skipValue(data[pos:], f.schema)
			if err != nil {
				return dst, key, f.err(err)
			}
			pos += n
		}
		if isKey && f.op != walkVarint && f.schema.Kind != KindString {
			var err error
			if key, err = appendValueText(key, data[start:pos], f); err != nil {
				return dst, key, err
			}
		}
	}
	if run >= 0 {
		dst = append(dst, data[run:pos]...)
	}
	return dst, key, nil
}

// skipVarint returns the position past the varint at data[pos:], failing
// where binary.Uvarint fails: no final byte within the buffer or within
// MaxVarintLen64 bytes, or a tenth byte that overflows 64 bits.
func skipVarint(data []byte, pos int) (int, bool) {
	end := min(len(data), pos+binary.MaxVarintLen64)
	for i := pos; i < end; i++ {
		if data[i] < 0x80 {
			return i + 1, i-pos < binary.MaxVarintLen64-1 || data[i] <= 1
		}
	}
	return 0, false
}

// appendValueText appends the text of a key field other than a long, an
// int or a string from its wire bytes, boxed as ReadField returns it: fmt's
// %v of a float64 is strconv's shortest 'g' form.
func appendValueText(dst, span []byte, f *walkField) ([]byte, error) {
	v, _, err := decodeValue(span, f.schema)
	if err != nil {
		return dst, f.err(err)
	}
	return fmt.Appendf(dst, "%v", v), nil
}

func (f *walkField) err(err error) error {
	return fmt.Errorf("avro: field %q: %w", f.name, err)
}
