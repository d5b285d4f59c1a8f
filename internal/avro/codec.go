package avro

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec encodes and decodes values of one record schema. It is stateless
// (beyond the schema) and safe for concurrent use.
type Codec struct {
	schema *Schema
}

// NewCodec returns a codec for a record schema.
func NewCodec(s *Schema) (*Codec, error) {
	if s == nil || s.Kind != KindRecord {
		return nil, errors.New("avro: codec requires a record schema")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Codec{schema: s}, nil
}

// MustCodec is NewCodec that panics on error, for statically known schemas.
func MustCodec(s *Schema) *Codec {
	c, err := NewCodec(s)
	if err != nil {
		panic(err)
	}
	return c
}

// Schema returns the codec's record schema.
func (c *Codec) Schema() *Schema { return c.schema }

// ErrTruncated reports a payload shorter than its schema demands.
var ErrTruncated = errors.New("avro: truncated payload")

// --- zigzag varint primitives ---

func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func readVarint(data []byte) (int64, int, error) {
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	return unzigzag(u), n, nil
}

// --- encoding ---

// Encode serializes a record given as map[string]any. Missing nullable
// fields encode as null; missing non-nullable fields are an error.
func (c *Codec) Encode(rec map[string]any) ([]byte, error) {
	return c.AppendEncode(nil, rec)
}

// AppendEncode appends the encoded record to dst.
func (c *Codec) AppendEncode(dst []byte, rec map[string]any) ([]byte, error) {
	var err error
	for _, f := range c.schema.Fields {
		v, ok := rec[f.Name]
		if !ok {
			v = nil
		}
		dst, err = encodeValue(dst, f.Schema, v)
		if err != nil {
			return nil, fmt.Errorf("avro: field %q: %w", f.Name, err)
		}
	}
	return dst, nil
}

// EncodeRow serializes a positional row ordered as the schema's fields —
// the ArrayToAvro step of Figure 4.
func (c *Codec) EncodeRow(row []any) ([]byte, error) {
	return c.AppendEncodeRow(nil, row)
}

// AppendEncodeRow appends the encoded row to dst.
func (c *Codec) AppendEncodeRow(dst []byte, row []any) ([]byte, error) {
	if len(row) != len(c.schema.Fields) {
		return nil, fmt.Errorf("avro: row has %d values, schema %q has %d fields",
			len(row), c.schema.Name, len(c.schema.Fields))
	}
	var err error
	for i, f := range c.schema.Fields {
		dst, err = encodeValue(dst, f.Schema, row[i])
		if err != nil {
			return nil, fmt.Errorf("avro: field %q: %w", f.Name, err)
		}
	}
	return dst, nil
}

func encodeValue(dst []byte, s *Schema, v any) ([]byte, error) {
	if s.Nullable {
		if v == nil {
			return append(dst, 0), nil // union branch 0 = null
		}
		dst = append(dst, 2) // zigzag(1): branch 1 = value
	} else if v == nil && s.Kind != KindNull {
		return nil, fmt.Errorf("nil value for non-nullable %s", s.Kind)
	}
	switch s.Kind {
	case KindNull:
		return dst, nil
	case KindBoolean:
		b, ok := v.(bool)
		if !ok {
			return nil, typeErr("bool", v)
		}
		if b {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case KindInt:
		n, ok := asInt64(v)
		if !ok || n > math.MaxInt32 || n < math.MinInt32 {
			return nil, typeErr("int32", v)
		}
		return appendVarint(dst, n), nil
	case KindLong:
		n, ok := asInt64(v)
		if !ok {
			return nil, typeErr("int64", v)
		}
		return appendVarint(dst, n), nil
	case KindFloat:
		f, ok := asFloat64(v)
		if !ok {
			return nil, typeErr("float32", v)
		}
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(f))), nil
	case KindDouble:
		f, ok := asFloat64(v)
		if !ok {
			return nil, typeErr("float64", v)
		}
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), nil
	case KindString:
		str, ok := v.(string)
		if !ok {
			return nil, typeErr("string", v)
		}
		dst = appendVarint(dst, int64(len(str)))
		return append(dst, str...), nil
	case KindBytes:
		b, ok := v.([]byte)
		if !ok {
			return nil, typeErr("[]byte", v)
		}
		dst = appendVarint(dst, int64(len(b)))
		return append(dst, b...), nil
	case KindArray:
		items, ok := v.([]any)
		if !ok {
			return nil, typeErr("[]any", v)
		}
		if len(items) > 0 {
			dst = appendVarint(dst, int64(len(items)))
			var err error
			for _, it := range items {
				dst, err = encodeValue(dst, s.Items, it)
				if err != nil {
					return nil, err
				}
			}
		}
		return appendVarint(dst, 0), nil
	case KindMap:
		m, ok := v.(map[string]any)
		if !ok {
			return nil, typeErr("map[string]any", v)
		}
		if len(m) > 0 {
			dst = appendVarint(dst, int64(len(m)))
			var err error
			for k, val := range m {
				dst = appendVarint(dst, int64(len(k)))
				dst = append(dst, k...)
				dst, err = encodeValue(dst, s.Items, val)
				if err != nil {
					return nil, err
				}
			}
		}
		return appendVarint(dst, 0), nil
	case KindRecord:
		switch rec := v.(type) {
		case map[string]any:
			var err error
			for _, f := range s.Fields {
				dst, err = encodeValue(dst, f.Schema, rec[f.Name])
				if err != nil {
					return nil, fmt.Errorf("field %q: %w", f.Name, err)
				}
			}
			return dst, nil
		case []any:
			if len(rec) != len(s.Fields) {
				return nil, fmt.Errorf("nested row has %d values, record %q has %d fields",
					len(rec), s.Name, len(s.Fields))
			}
			var err error
			for i, f := range s.Fields {
				dst, err = encodeValue(dst, f.Schema, rec[i])
				if err != nil {
					return nil, fmt.Errorf("field %q: %w", f.Name, err)
				}
			}
			return dst, nil
		default:
			return nil, typeErr("record", v)
		}
	default:
		return nil, fmt.Errorf("avro: unsupported kind %s", s.Kind)
	}
}

func typeErr(want string, got any) error {
	return fmt.Errorf("want %s, got %T", want, got)
}

func asInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	default:
		return 0, false
	}
}

func asFloat64(v any) (float64, bool) {
	switch f := v.(type) {
	case float64:
		return f, true
	case float32:
		return float64(f), true
	case int64:
		return float64(f), true
	case int:
		return float64(f), true
	default:
		return 0, false
	}
}

// --- decoding ---

// Decode deserializes a record into a fresh map[string]any.
func (c *Codec) Decode(data []byte) (map[string]any, error) {
	rec := make(map[string]any, len(c.schema.Fields))
	pos := 0
	for _, f := range c.schema.Fields {
		v, n, err := decodeValue(data[pos:], f.Schema)
		if err != nil {
			return nil, fmt.Errorf("avro: field %q: %w", f.Name, err)
		}
		rec[f.Name] = v
		pos += n
	}
	return rec, nil
}

// DecodeRow deserializes a record into a positional []any row — the
// AvroToArray step of Figure 4. If row has the right length it is reused.
func (c *Codec) DecodeRow(data []byte, row []any) ([]any, error) {
	if len(row) != len(c.schema.Fields) {
		row = make([]any, len(c.schema.Fields))
	}
	pos := 0
	for i, f := range c.schema.Fields {
		v, n, err := decodeValue(data[pos:], f.Schema)
		if err != nil {
			return nil, fmt.Errorf("avro: field %q: %w", f.Name, err)
		}
		row[i] = v
		pos += n
	}
	return row, nil
}

func decodeValue(data []byte, s *Schema) (any, int, error) {
	pos := 0
	if s.Nullable {
		branch, n, err := readVarint(data)
		if err != nil {
			return nil, 0, err
		}
		pos += n
		if branch == 0 {
			return nil, pos, nil
		}
	}
	switch s.Kind {
	case KindNull:
		return nil, pos, nil
	case KindBoolean:
		if pos >= len(data) {
			return nil, 0, ErrTruncated
		}
		return data[pos] != 0, pos + 1, nil
	case KindInt, KindLong:
		v, n, err := readVarint(data[pos:])
		if err != nil {
			return nil, 0, err
		}
		return v, pos + n, nil
	case KindFloat:
		if pos+4 > len(data) {
			return nil, 0, ErrTruncated
		}
		bits := binary.LittleEndian.Uint32(data[pos:])
		return float64(math.Float32frombits(bits)), pos + 4, nil
	case KindDouble:
		if pos+8 > len(data) {
			return nil, 0, ErrTruncated
		}
		bits := binary.LittleEndian.Uint64(data[pos:])
		return math.Float64frombits(bits), pos + 8, nil
	case KindString:
		ln, n, err := readVarint(data[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += n
		if ln < 0 || ln > int64(len(data)-pos) {
			return nil, 0, ErrTruncated
		}
		return string(data[pos : pos+int(ln)]), pos + int(ln), nil
	case KindBytes:
		ln, n, err := readVarint(data[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += n
		if ln < 0 || ln > int64(len(data)-pos) {
			return nil, 0, ErrTruncated
		}
		out := make([]byte, ln)
		copy(out, data[pos:pos+int(ln)])
		return out, pos + int(ln), nil
	case KindArray:
		var items []any
		for {
			count, n, err := readVarint(data[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += n
			if count == 0 {
				break
			}
			if count < 0 {
				count = -count // block-size form; size value follows
				_, n, err := readVarint(data[pos:])
				if err != nil {
					return nil, 0, err
				}
				pos += n
			}
			for i := int64(0); i < count; i++ {
				v, n, err := decodeValue(data[pos:], s.Items)
				if err != nil {
					return nil, 0, err
				}
				items = append(items, v)
				pos += n
			}
		}
		if items == nil {
			items = []any{}
		}
		return items, pos, nil
	case KindMap:
		m := map[string]any{}
		for {
			count, n, err := readVarint(data[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += n
			if count == 0 {
				break
			}
			if count < 0 {
				count = -count
				_, n, err := readVarint(data[pos:])
				if err != nil {
					return nil, 0, err
				}
				pos += n
			}
			for i := int64(0); i < count; i++ {
				kl, n, err := readVarint(data[pos:])
				if err != nil {
					return nil, 0, err
				}
				pos += n
				if kl < 0 || kl > int64(len(data)-pos) {
					return nil, 0, ErrTruncated
				}
				key := string(data[pos : pos+int(kl)])
				pos += int(kl)
				v, n, err := decodeValue(data[pos:], s.Items)
				if err != nil {
					return nil, 0, err
				}
				m[key] = v
				pos += n
			}
		}
		return m, pos, nil
	case KindRecord:
		rec := make(map[string]any, len(s.Fields))
		for _, f := range s.Fields {
			v, n, err := decodeValue(data[pos:], f.Schema)
			if err != nil {
				return nil, 0, fmt.Errorf("field %q: %w", f.Name, err)
			}
			rec[f.Name] = v
			pos += n
		}
		return rec, pos, nil
	default:
		return nil, 0, fmt.Errorf("avro: unsupported kind %s", s.Kind)
	}
}

// skipValue advances past one value without materializing it.
func skipValue(data []byte, s *Schema) (int, error) {
	pos := 0
	if s.Nullable {
		branch, n, err := readVarint(data)
		if err != nil {
			return 0, err
		}
		pos += n
		if branch == 0 {
			return pos, nil
		}
	}
	switch s.Kind {
	case KindNull:
		return pos, nil
	case KindBoolean:
		if pos >= len(data) {
			return 0, ErrTruncated
		}
		return pos + 1, nil
	case KindInt, KindLong:
		_, n, err := readVarint(data[pos:])
		if err != nil {
			return 0, err
		}
		return pos + n, nil
	case KindFloat:
		if pos+4 > len(data) {
			return 0, ErrTruncated
		}
		return pos + 4, nil
	case KindDouble:
		if pos+8 > len(data) {
			return 0, ErrTruncated
		}
		return pos + 8, nil
	case KindString, KindBytes:
		ln, n, err := readVarint(data[pos:])
		if err != nil {
			return 0, err
		}
		pos += n
		if ln < 0 || ln > int64(len(data)-pos) {
			return 0, ErrTruncated
		}
		return pos + int(ln), nil
	default:
		// Composite kinds fall back to a full decode for skipping.
		_, n, err := decodeValue(data, s)
		return n, err
	}
}

// ReadField extracts a single top-level field from wire bytes without
// decoding the rest of the record. This is the access pattern a native
// Samza job uses for filters, giving it the throughput edge the paper
// measures over SamzaSQL's full decode-to-array pipeline.
func (c *Codec) ReadField(data []byte, name string) (any, error) {
	idx := c.schema.FieldIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("avro: record %q has no field %q", c.schema.Name, name)
	}
	pos := 0
	for i := 0; i < idx; i++ {
		n, err := skipValue(data[pos:], c.schema.Fields[i].Schema)
		if err != nil {
			return nil, fmt.Errorf("avro: skipping field %q: %w", c.schema.Fields[i].Name, err)
		}
		pos += n
	}
	v, _, err := decodeValue(data[pos:], c.schema.Fields[idx].Schema)
	if err != nil {
		return nil, fmt.Errorf("avro: field %q: %w", name, err)
	}
	return v, nil
}

// ReadFields decodes only the top-level fields whose indexes are marked in
// wanted (index-aligned with the schema), skipping everything else in one
// pass over the wire bytes. The result is a sparse row: unwanted slots are
// nil — the boxed twin of a ColumnDecoder compiled with the same wanted
// marks, which the block scan uses (the paper's §7 proposal to avoid
// materializing full tuples for filter queries); FuzzAvroDecode holds the
// two to the same results.
func (c *Codec) ReadFields(data []byte, wanted []bool, row []any) ([]any, error) {
	if len(row) != len(c.schema.Fields) {
		row = make([]any, len(c.schema.Fields))
	}
	maxIdx := -1
	for i, w := range wanted {
		if w {
			maxIdx = i
		}
	}
	pos := 0
	for i := 0; i <= maxIdx && i < len(c.schema.Fields); i++ {
		f := c.schema.Fields[i]
		if wanted[i] {
			v, n, err := decodeValue(data[pos:], f.Schema)
			if err != nil {
				return nil, fmt.Errorf("avro: field %q: %w", f.Name, err)
			}
			row[i] = v
			pos += n
			continue
		}
		n, err := skipValue(data[pos:], f.Schema)
		if err != nil {
			return nil, fmt.Errorf("avro: skipping field %q: %w", f.Name, err)
		}
		row[i] = nil
		pos += n
	}
	return row, nil
}

// ProjectFields re-encodes a subset of the record's top-level fields,
// reading each from the wire bytes and appending it to a new payload in the
// order given. A native Samza project task uses this Avro-to-Avro copy,
// skipping the array materialization SamzaSQL performs.
func (c *Codec) ProjectFields(data []byte, names []string, out *Codec) ([]byte, error) {
	// Locate the byte extent of each top-level field once.
	type extent struct{ start, end int }
	extents := make([]extent, len(c.schema.Fields))
	pos := 0
	for i, f := range c.schema.Fields {
		n, err := skipValue(data[pos:], f.Schema)
		if err != nil {
			return nil, fmt.Errorf("avro: sizing field %q: %w", f.Name, err)
		}
		extents[i] = extent{pos, pos + n}
		pos += n
	}
	var dst []byte
	for _, name := range names {
		idx := c.schema.FieldIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("avro: record %q has no field %q", c.schema.Name, name)
		}
		dst = append(dst, data[extents[idx].start:extents[idx].end]...)
	}
	return dst, nil
}
