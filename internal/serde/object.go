// Package serde holds the generic codecs SamzaSQL keeps its local state in
// (§2): ObjectSerde, the schema-free object serde that stands in for the
// paper's Kryo serializer, with the wire primitives it is built on, and
// RowCodec, the typed row codec of the join and window stores. Message
// payloads use the schema-driven codec in internal/avro.
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
//
// The wire format is defined once, by the Append* functions and the Reader
// below; ObjectSerde boxes values on top of them, and a caller that knows
// the shape of its row (an accumulator's state) writes and reads the same
// bytes with them directly, unboxed.
type ObjectSerde struct{}

// Class is the class of one value, written as its name in front of the
// payload.
type Class uint8

// The classes a value can have; the zero Class is none of them.
const (
	ClassNull Class = iota + 1
	ClassLong
	ClassDouble
	ClassString
	ClassBool
	ClassBytes
	ClassRow
)

// classNames are what Kryo would write for unregistered classes, shortened
// from the java.lang.* forms but kept as strings so decode must match on
// text, not on a byte tag.
var classNames = [...]string{
	ClassNull:   "null",
	ClassLong:   "long",
	ClassDouble: "double",
	ClassString: "string",
	ClassBool:   "boolean",
	ClassBytes:  "bytes",
	ClassRow:    "object[]",
}

func (c Class) String() string {
	if c == 0 || int(c) >= len(classNames) {
		return "no class"
	}
	return classNames[c]
}

// ErrCorruptObject reports undecodable object payloads.
var ErrCorruptObject = errors.New("serde: corrupt object payload")

// Encode encodes one value. Values must be []any rows (or single values,
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

func (o ObjectSerde) appendRow(dst []byte, row []any) ([]byte, error) {
	dst = AppendRowHeader(dst, len(row))
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
		return AppendNull(dst), nil
	case int64:
		return AppendLong(dst, t), nil
	case float64:
		return AppendDouble(dst, t), nil
	case string:
		return AppendString(dst, t), nil
	case bool:
		return AppendBool(dst, t), nil
	case []byte:
		dst = appendClass(dst, ClassBytes)
		return appendLenPrefixed(dst, t), nil
	case []any:
		return o.appendRow(AppendNestedRow(dst), t)
	default:
		return nil, fmt.Errorf("serde: object serde cannot encode %T", el)
	}
}

// Decode decodes one encoded row, returning it as a []any.
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
	count, pos, err := readRowHeader(data)
	if err != nil {
		return nil, 0, err
	}
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

func (o ObjectSerde) decodeValue(data []byte) (any, int, error) {
	cls, pos, err := readClass(data)
	if err != nil {
		return nil, 0, err
	}
	data = data[pos:]
	switch cls {
	case ClassNull:
		return nil, pos, nil
	case ClassLong:
		v, n, err := readLong(data)
		return v, pos + n, err
	case ClassDouble:
		v, n, err := readDouble(data)
		return v, pos + n, err
	case ClassString:
		b, n, err := readLenPrefixed(data)
		return string(b), pos + n, err
	case ClassBool:
		v, n, err := readBool(data)
		return v, pos + n, err
	case ClassBytes:
		b, n, err := readLenPrefixed(data)
		return append([]byte{}, b...), pos + n, err
	default: // ClassRow
		row, n, err := o.decodeRow(data)
		return row, pos + n, err
	}
}

// The wire primitives. A row is its element count (a uvarint) followed by
// its elements; an element is a class name (uvarint length, then the name)
// followed by the class's payload: nothing for null, a zigzag varint for
// long, 8 bytes little-endian for double, a uvarint length and the bytes
// for string and bytes, one byte 0 or 1 for boolean, and a row for object[].

// AppendRowHeader appends the element count that opens a row; the row's n
// elements follow it.
func AppendRowHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendNestedRow appends the class name that makes the row written next
// (AppendRowHeader and its elements) an element of the enclosing row.
func AppendNestedRow(dst []byte) []byte { return appendClass(dst, ClassRow) }

// AppendNull appends a null element.
func AppendNull(dst []byte) []byte { return appendClass(dst, ClassNull) }

// AppendLong appends a long element.
func AppendLong(dst []byte, v int64) []byte { return appendZigzag(appendClass(dst, ClassLong), v) }

// AppendDouble appends a double element.
func AppendDouble(dst []byte, v float64) []byte {
	return appendFloat64(appendClass(dst, ClassDouble), v)
}

// AppendString appends a string element, from a string or its bytes.
func AppendString[S string | []byte](dst []byte, s S) []byte {
	return appendLenPrefixed(appendClass(dst, ClassString), s)
}

// AppendBool appends a boolean element.
func AppendBool(dst []byte, v bool) []byte { return appendBoolByte(appendClass(dst, ClassBool), v) }

func appendClass(dst []byte, c Class) []byte { return appendLenPrefixed(dst, classNames[c]) }

// The payload layouts, shared with RowCodec, which writes the same payloads
// without class names.

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

func appendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendLenPrefixed[S string | []byte](dst []byte, b S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendBoolByte(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Reader reads a row's elements in sequence, in place: class names are
// matched without building strings and strings come back as views of the
// input, so reading allocates nothing. Each read accepts only the class it
// names. The first failure sticks — later reads return zero values — and
// Err reports it; Done also fails on bytes left unread.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err reports the first failed read, wrapping ErrCorruptObject.
func (r *Reader) Err() error { return r.err }

// Done reports the first failed read, or else an error when bytes are left
// unread: a reader that has read everything it expects calls it to accept
// exactly that layout.
func (r *Reader) Done() error {
	if r.err == nil && len(r.data) > 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptObject, len(r.data))
	}
	return r.err
}

// RowHeader reads the element count that opens a row.
func (r *Reader) RowHeader() int {
	if r.err != nil {
		return 0
	}
	n, w, err := readRowHeader(r.data)
	r.advance(w, err)
	return n
}

// Row reads a nested row element and returns the row — its element count
// and elements — for a Reader of its own.
func (r *Reader) Row() []byte {
	if !r.expect(ClassRow) {
		return nil
	}
	n, err := rowLen(r.data)
	row := r.data[:n]
	r.advance(n, err)
	return row
}

// Class returns the class of the next element without reading it.
func (r *Reader) Class() Class {
	if r.err != nil {
		return 0
	}
	c, _, err := readClass(r.data)
	if err != nil {
		r.fail(err)
	}
	return c
}

// Null reads a null element.
func (r *Reader) Null() { r.expect(ClassNull) }

// Long reads a long element.
func (r *Reader) Long() int64 {
	if !r.expect(ClassLong) {
		return 0
	}
	v, n, err := readLong(r.data)
	r.advance(n, err)
	return v
}

// Double reads a double element.
func (r *Reader) Double() float64 {
	if !r.expect(ClassDouble) {
		return 0
	}
	v, n, err := readDouble(r.data)
	r.advance(n, err)
	return v
}

// Str reads a string element, returned as a view of the input.
func (r *Reader) Str() []byte {
	if !r.expect(ClassString) {
		return nil
	}
	b, n, err := readLenPrefixed(r.data)
	r.advance(n, err)
	return b
}

// Bool reads a boolean element.
func (r *Reader) Bool() bool {
	if !r.expect(ClassBool) {
		return false
	}
	v, n, err := readBool(r.data)
	r.advance(n, err)
	return v
}

// expect consumes the next element's class name, failing unless it is want.
func (r *Reader) expect(want Class) bool {
	if r.err != nil {
		return false
	}
	name := classNames[want]
	if len(r.data) > len(name) && int(r.data[0]) == len(name) && string(r.data[1:1+len(name)]) == name {
		r.data = r.data[1+len(name):]
		return true
	}
	got, _, err := readClass(r.data)
	if err == nil {
		err = fmt.Errorf("%w: %s where %s belongs", ErrCorruptObject, got, want)
	}
	r.fail(err)
	return false
}

func (r *Reader) advance(n int, err error) {
	if err != nil {
		r.fail(err)
		return
	}
	r.data = r.data[n:]
}

func (r *Reader) fail(err error) {
	r.err, r.data = err, nil
}

func readRowHeader(data []byte) (int, int, error) {
	count, n := binary.Uvarint(data)
	// Every element takes at least one byte, which bounds the row a corrupt
	// count can make decode allocate.
	if n <= 0 || count > uint64(len(data)-n) {
		return 0, 0, ErrCorruptObject
	}
	return int(count), n, nil
}

// readClass reads the class name at the start of data.
func readClass(data []byte) (Class, int, error) {
	name, n, err := readLenPrefixed(data)
	if err != nil {
		return 0, 0, err
	}
	for c := ClassNull; c <= ClassRow; c++ {
		if string(name) == classNames[c] {
			return c, n, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: unknown class %q", ErrCorruptObject, name)
}

func readLong(data []byte) (int64, int, error) {
	u, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, ErrCorruptObject
	}
	return int64(u>>1) ^ -int64(u&1), n, nil
}

func readDouble(data []byte) (float64, int, error) {
	if len(data) < 8 {
		return 0, 0, ErrCorruptObject
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), 8, nil
}

func readBool(data []byte) (bool, int, error) {
	if len(data) == 0 || data[0] > 1 {
		return false, 0, ErrCorruptObject
	}
	return data[0] == 1, 1, nil
}

// readLenPrefixed reads a uvarint length and that many bytes, returned as a
// view of data.
func readLenPrefixed(data []byte) ([]byte, int, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 || ln > uint64(len(data)-n) {
		return nil, 0, ErrCorruptObject
	}
	end := n + int(ln)
	return data[n:end], end, nil
}

// rowLen returns the encoded length of the row at the start of data
// without decoding it.
func rowLen(data []byte) (int, error) {
	count, pos, err := readRowHeader(data)
	if err != nil {
		return 0, err
	}
	for ; count > 0; count-- {
		n, err := valueLen(data[pos:])
		if err != nil {
			return 0, err
		}
		pos += n
	}
	return pos, nil
}

// valueLen returns the encoded length of the element at the start of data
// without decoding it.
func valueLen(data []byte) (int, error) {
	cls, pos, err := readClass(data)
	if err != nil {
		return 0, err
	}
	var n int
	switch cls {
	case ClassNull:
	case ClassLong:
		_, n, err = readLong(data[pos:])
	case ClassDouble:
		_, n, err = readDouble(data[pos:])
	case ClassString, ClassBytes:
		_, n, err = readLenPrefixed(data[pos:])
	case ClassBool:
		_, n, err = readBool(data[pos:])
	default: // ClassRow
		n, err = rowLen(data[pos:])
	}
	return pos + n, err
}
