package serde

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ObjectSerde is a generic object serde for []any rows, modeled on Kryo's
// default (unregistered) mode: every value is prefixed with its class name
// as a length-prefixed string, followed by a compact payload (zigzag
// varints for integers, length-prefixed strings). Like Kryo it needs no
// schema — and like Kryo it is measurably slower than a schema-driven
// codec, because every element pays a name read, a string match and boxing
// where Avro's codec walks a fixed field plan. SamzaSQL's prototype used
// Kryo for its key-value store values, which the paper identifies as the
// main cause of its ~2x join slowdown versus native Avro state (§5.1).
type ObjectSerde struct{}

// Name implements Serde.
func (ObjectSerde) Name() string { return "object" }

// Class names (what Kryo would write for unregistered classes; shortened
// from the java.lang.* forms but kept as strings so decode must match on
// text, not on a byte tag).
const (
	clsNil    = "null"
	clsInt64  = "long"
	clsFloat  = "double"
	clsString = "string"
	clsBool   = "boolean"
	clsBytes  = "bytes"
	clsRow    = "object[]"
)

// ErrCorruptObject reports undecodable object payloads.
var ErrCorruptObject = errors.New("serde: corrupt object payload")

// Encode implements Serde. Values must be []any rows (or single values,
// wrapped as one-element rows) of nil/int64/float64/string/bool/[]byte
// or nested []any.
func (o ObjectSerde) Encode(v any) ([]byte, error) {
	row, ok := v.([]any)
	if !ok {
		row = []any{v}
	}
	return o.appendRow(nil, row)
}

// AppendEncode appends the encoding of row to dst, for callers that build
// many keys into one buffer.
func (o ObjectSerde) AppendEncode(dst []byte, row []any) ([]byte, error) {
	return o.appendRow(dst, row)
}

func appendName(dst []byte, name string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

func (o ObjectSerde) appendRow(dst []byte, row []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	var err error
	for _, el := range row {
		dst, err = o.appendValue(dst, el)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (o ObjectSerde) appendValue(dst []byte, el any) ([]byte, error) {
	switch t := el.(type) {
	case nil:
		return appendName(dst, clsNil), nil
	case int64:
		dst = appendName(dst, clsInt64)
		return binary.AppendUvarint(dst, uint64((t<<1)^(t>>63))), nil
	case float64:
		dst = appendName(dst, clsFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(t)), nil
	case string:
		dst = appendName(dst, clsString)
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		return append(dst, t...), nil
	case bool:
		dst = appendName(dst, clsBool)
		if t {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case []byte:
		dst = appendName(dst, clsBytes)
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		return append(dst, t...), nil
	case []any:
		dst = appendName(dst, clsRow)
		return o.appendRow(dst, t)
	default:
		return nil, fmt.Errorf("serde: object serde cannot encode %T", el)
	}
}

// Decode implements Serde, returning a []any row.
func (o ObjectSerde) Decode(data []byte) (any, error) {
	row, n, err := o.decodeRow(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptObject, len(data)-n)
	}
	return row, nil
}

func (o ObjectSerde) decodeRow(data []byte) ([]any, int, error) {
	count, n := binary.Uvarint(data)
	// Every element takes at least one byte, which bounds the row a corrupt
	// count can make decode allocate.
	if n <= 0 || count > uint64(len(data)-n) {
		return nil, 0, ErrCorruptObject
	}
	pos := n
	row := make([]any, count)
	for i := range row {
		v, n, err := o.decodeValue(data[pos:])
		if err != nil {
			return nil, 0, err
		}
		row[i] = v
		pos += n
	}
	return row, pos, nil
}

func readName(data []byte) (string, int, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 || ln > uint64(len(data)-n) {
		return "", 0, ErrCorruptObject
	}
	return string(data[n : n+int(ln)]), n + int(ln), nil
}

func (o ObjectSerde) decodeValue(data []byte) (any, int, error) {
	name, pos, err := readName(data)
	if err != nil {
		return nil, 0, err
	}
	switch name {
	case clsNil:
		return nil, pos, nil
	case clsInt64:
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, 0, ErrCorruptObject
		}
		return int64(u>>1) ^ -int64(u&1), pos + n, nil
	case clsFloat:
		if pos+8 > len(data) {
			return nil, 0, ErrCorruptObject
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])), pos + 8, nil
	case clsString:
		ln, n := binary.Uvarint(data[pos:])
		if n <= 0 || ln > uint64(len(data)-pos-n) {
			return nil, 0, ErrCorruptObject
		}
		start := pos + n
		return string(data[start : start+int(ln)]), start + int(ln), nil
	case clsBool:
		if pos >= len(data) {
			return nil, 0, ErrCorruptObject
		}
		return data[pos] != 0, pos + 1, nil
	case clsBytes:
		ln, n := binary.Uvarint(data[pos:])
		if n <= 0 || ln > uint64(len(data)-pos-n) {
			return nil, 0, ErrCorruptObject
		}
		start := pos + n
		out := make([]byte, ln)
		copy(out, data[start:start+int(ln)])
		return out, start + int(ln), nil
	case clsRow:
		row, n, err := o.decodeRow(data[pos:])
		if err != nil {
			return nil, 0, err
		}
		return row, pos + n, nil
	default:
		return nil, 0, fmt.Errorf("%w: unknown class %q", ErrCorruptObject, name)
	}
}

func init() {
	Register(ObjectSerde{})
}
