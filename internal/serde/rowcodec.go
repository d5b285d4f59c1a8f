package serde

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"samzasql/internal/vec"
)

// RowCodec is a schema-driven codec for []any rows whose column kinds are
// known when the query is planned — the stream-stream join state's row
// format. Its kinds are the column-vector kinds (vec.KindsOf compiles both
// from the plan's row type): vec.Int64 is a zig-zag varint, vec.Float64 8 bytes little-endian,
// vec.String a uvarint length then the bytes, vec.Bool one byte, and a
// vec.Any column (arrays, maps, ANY) is always an ObjectSerde value. Where
// ObjectSerde writes a class name in front of every value and allocates a
// fresh row per decode, a RowCodec is compiled once per operator from the
// plan's row type and writes
//
//	null bitmap   ceil((n+1)/8) bytes: bit i set = column i is NULL;
//	              bit n set = an escape bitmap follows
//	escape bitmap ceil(n/8) bytes, only when bit n is set: bit i set =
//	              column i's payload is an ObjectSerde value
//	payloads      one per non-NULL column, in column order, laid out by the
//	              column's declared kind
//
// The escape bitmap is the fallback for a runtime value whose dynamic type
// is not the one its column declared (the planner's types are static; an ANY
// expression or a UDF can produce anything): such a value round-trips through
// ObjectSerde instead of failing the write. Rows of well-typed values never
// carry it. Decode fills a caller-owned row, so a reader that decodes into an
// arena allocates only what the values themselves need.
type RowCodec struct {
	kinds []vec.Kind
	hdr   int // null bitmap bytes
	esc   int // escape bitmap bytes
}

// ErrCorruptRow reports an undecodable RowCodec payload.
var ErrCorruptRow = errors.New("serde: corrupt row payload")

// NewRowCodec compiles a codec for rows of the given column kinds.
func NewRowCodec(kinds []vec.Kind) *RowCodec {
	n := len(kinds)
	return &RowCodec{kinds: append([]vec.Kind(nil), kinds...), hdr: (n + 8) / 8, esc: (n + 7) / 8}
}

// AppendEncode appends the encoding of row, which must have the codec's
// arity, to dst.
//
//samzasql:hotpath
func (c *RowCodec) AppendEncode(dst []byte, row []any) ([]byte, error) {
	if len(row) != len(c.kinds) {
		return nil, fmt.Errorf("serde: row codec: row has %d columns, codec %d", len(row), len(c.kinds))
	}
	w := c.begin(dst)
	for i, v := range row {
		if err := w.value(i, v); err != nil {
			return nil, err
		}
	}
	return w.dst, nil
}

// rowWriter appends one row: the null bitmap is reserved up front, the
// escape bitmap opened behind it by the first mistyped value.
type rowWriter struct {
	c     *RowCodec
	dst   []byte
	start int // where the row starts in dst
	escAt int // where the escape bitmap starts, once a value needed it
}

func (c *RowCodec) begin(dst []byte) rowWriter {
	start := len(dst)
	for i := 0; i < c.hdr; i++ {
		dst = append(dst, 0)
	}
	return rowWriter{c: c, dst: dst, start: start, escAt: -1}
}

// null marks column i NULL.
func (w *rowWriter) null(i int) { w.dst[w.start+i>>3] |= 1 << (i & 7) }

// value appends boxed value v as column i: NULL for nil, the column's
// declared layout when v's dynamic type is the declared one, an ObjectSerde
// value otherwise (escaped unless the column is vec.Any).
func (w *rowWriter) value(i int, v any) error {
	c := w.c
	switch x := v.(type) {
	case nil:
		w.null(i)
		return nil
	case int64:
		if c.kinds[i] == vec.Int64 {
			w.dst = appendZigzag(w.dst, x)
			return nil
		}
	case float64:
		if c.kinds[i] == vec.Float64 {
			w.dst = appendFloat64(w.dst, x)
			return nil
		}
	case string:
		if c.kinds[i] == vec.String {
			w.dst = appendLenPrefixed(w.dst, x)
			return nil
		}
	case bool:
		if c.kinds[i] == vec.Bool {
			w.dst = appendBoolByte(w.dst, x)
			return nil
		}
	}
	if c.kinds[i] != vec.Any {
		n := len(c.kinds)
		if w.escAt < 0 {
			// First mistyped value of the row: open the escape bitmap
			// behind the null bitmap, moving the payloads written so far.
			w.escAt = w.start + c.hdr
			w.dst[w.start+n>>3] |= 1 << (n & 7)
			for k := 0; k < c.esc; k++ {
				w.dst = append(w.dst, 0)
			}
			copy(w.dst[w.escAt+c.esc:], w.dst[w.escAt:len(w.dst)-c.esc])
			clear(w.dst[w.escAt : w.escAt+c.esc])
		}
		w.dst[w.escAt+i>>3] |= 1 << (i & 7)
	}
	var err error
	w.dst, err = (ObjectSerde{}).appendValue(w.dst, v)
	return err
}

// Decode decodes data into dst, which must have the codec's arity; NULL
// columns become nil. It returns an error wrapping ErrCorruptRow, and leaves
// dst in an unspecified state, when data is truncated, has trailing bytes or
// is otherwise not an encoding this codec wrote.
//
//samzasql:hotpath
func (c *RowCodec) Decode(data []byte, dst []any) error {
	if len(dst) != len(c.kinds) {
		return fmt.Errorf("serde: row codec: destination has %d columns, codec %d", len(dst), len(c.kinds))
	}
	rd, err := c.open(data)
	if err != nil {
		return err
	}
	for i := range c.kinds {
		if dst[i], err = rd.value(i); err != nil {
			return err
		}
	}
	return rd.done()
}

// rowReader reads one encoded row column by column, in column order.
type rowReader struct {
	c     *RowCodec
	data  []byte
	nulls []byte
	escs  []byte // nil when the row has no escape bitmap
	pos   int
}

// open checks data's bitmaps and positions a reader on its first payload.
func (c *RowCodec) open(data []byte) (rowReader, error) {
	n := len(c.kinds)
	if len(data) < c.hdr {
		return rowReader{}, ErrCorruptRow
	}
	rd := rowReader{c: c, data: data, nulls: data[:c.hdr], pos: c.hdr}
	if rd.nulls[n>>3]&(1<<(n&7)) != 0 {
		if len(data) < rd.pos+c.esc {
			return rowReader{}, ErrCorruptRow
		}
		rd.escs = data[rd.pos : rd.pos+c.esc]
		rd.pos += c.esc
	}
	return rd, nil
}

// boxed reports whether column i is not a payload in its declared typed
// layout: NULL, a vec.Any column, or escaped.
func (rd *rowReader) boxed(i int) bool {
	bit := byte(1) << (i & 7)
	return rd.nulls[i>>3]&bit != 0 || rd.c.kinds[i] == vec.Any || (rd.escs != nil && rd.escs[i>>3]&bit != 0)
}

// value reads column i boxed: nil for NULL, an ObjectSerde value where
// boxed, else the declared layout's Go value.
func (rd *rowReader) value(i int) (any, error) {
	if rd.nulls[i>>3]&(1<<(i&7)) != 0 {
		return nil, nil
	}
	if rd.boxed(i) {
		v, m, err := (ObjectSerde{}).decodeValue(rd.data[rd.pos:])
		if err != nil {
			return nil, fmt.Errorf("%w: column %d: %v", ErrCorruptRow, i, err)
		}
		rd.pos += m
		return v, nil
	}
	switch rd.c.kinds[i] {
	case vec.Int64:
		return rd.int64()
	case vec.Float64:
		return rd.float64()
	case vec.String:
		s, err := rd.str()
		return string(s), err
	case vec.Bool:
		return rd.bool()
	}
	return nil, rd.unknownKind(i)
}

func (rd *rowReader) int64() (int64, error) {
	u, m := binary.Uvarint(rd.data[rd.pos:])
	if m <= 0 {
		return 0, ErrCorruptRow
	}
	rd.pos += m
	return int64(u>>1) ^ -int64(u&1), nil
}

func (rd *rowReader) float64() (float64, error) {
	if len(rd.data)-rd.pos < 8 {
		return 0, ErrCorruptRow
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(rd.data[rd.pos:]))
	rd.pos += 8
	return x, nil
}

// str returns a view of the string payload in data.
func (rd *rowReader) str() ([]byte, error) {
	ln, m := binary.Uvarint(rd.data[rd.pos:])
	if m <= 0 || ln > uint64(len(rd.data)-rd.pos-m) {
		return nil, ErrCorruptRow
	}
	s := rd.data[rd.pos+m : rd.pos+m+int(ln)]
	rd.pos += m + int(ln)
	return s, nil
}

func (rd *rowReader) bool() (bool, error) {
	if rd.pos >= len(rd.data) {
		return false, ErrCorruptRow
	}
	rd.pos++
	return rd.data[rd.pos-1] != 0, nil
}

func (rd *rowReader) unknownKind(i int) error {
	return fmt.Errorf("%w: column %d has unknown kind %d", ErrCorruptRow, i, rd.c.kinds[i])
}

// done fails on bytes left after the last column.
func (rd *rowReader) done() error {
	if rd.pos != len(rd.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(rd.data)-rd.pos)
	}
	return nil
}
