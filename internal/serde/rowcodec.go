package serde

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"samzasql/internal/vec"
)

// RowCodec is a schema-driven codec for []any rows whose column kinds are
// known when the query is planned — the join state's row format. Its kinds
// are the column-vector kinds (vec.KindsOf compiles both from the plan's row
// type): vec.Int64 is a zig-zag varint, vec.Float64 8 bytes little-endian,
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

// Arity is the number of columns of the codec's rows.
func (c *RowCodec) Arity() int { return len(c.kinds) }

// AppendEncode appends the encoding of row, which must have the codec's
// arity, to dst.
//
//samzasql:hotpath
func (c *RowCodec) AppendEncode(dst []byte, row []any) ([]byte, error) {
	n := len(c.kinds)
	if len(row) != n {
		return nil, fmt.Errorf("serde: row codec: row has %d columns, codec %d", len(row), n)
	}
	start := len(dst)
	for i := 0; i < c.hdr; i++ {
		dst = append(dst, 0)
	}
	escAt := -1 // where the escape bitmap starts, once a value needed it
	var err error
	for i, v := range row {
		if v == nil {
			dst[start+i>>3] |= 1 << (i & 7)
			continue
		}
		switch x := v.(type) {
		case int64:
			if c.kinds[i] == vec.Int64 {
				dst = binary.AppendUvarint(dst, uint64((x<<1)^(x>>63)))
				continue
			}
		case float64:
			if c.kinds[i] == vec.Float64 {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
				continue
			}
		case string:
			if c.kinds[i] == vec.String {
				dst = binary.AppendUvarint(dst, uint64(len(x)))
				dst = append(dst, x...)
				continue
			}
		case bool:
			if c.kinds[i] == vec.Bool {
				b := byte(0)
				if x {
					b = 1
				}
				dst = append(dst, b)
				continue
			}
		}
		if c.kinds[i] != vec.Any {
			if escAt < 0 {
				// First mistyped value of the row: open the escape bitmap
				// behind the null bitmap, moving the payloads written so far.
				escAt = start + c.hdr
				dst[start+n>>3] |= 1 << (n & 7)
				for k := 0; k < c.esc; k++ {
					dst = append(dst, 0)
				}
				copy(dst[escAt+c.esc:], dst[escAt:len(dst)-c.esc])
				clear(dst[escAt : escAt+c.esc])
			}
			dst[escAt+i>>3] |= 1 << (i & 7)
		}
		if dst, err = (ObjectSerde{}).appendValue(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Decode decodes data into dst, which must have the codec's arity; NULL
// columns become nil. It returns an error wrapping ErrCorruptRow, and leaves
// dst in an unspecified state, when data is truncated, has trailing bytes or
// is otherwise not an encoding this codec wrote.
//
//samzasql:hotpath
func (c *RowCodec) Decode(data []byte, dst []any) error {
	n := len(c.kinds)
	if len(dst) != n {
		return fmt.Errorf("serde: row codec: destination has %d columns, codec %d", len(dst), n)
	}
	if len(data) < c.hdr {
		return ErrCorruptRow
	}
	nulls := data[:c.hdr]
	pos := c.hdr
	var escs []byte
	if nulls[n>>3]&(1<<(n&7)) != 0 {
		if len(data) < pos+c.esc {
			return ErrCorruptRow
		}
		escs = data[pos : pos+c.esc]
		pos += c.esc
	}
	for i, k := range c.kinds {
		bit := byte(1) << (i & 7)
		if nulls[i>>3]&bit != 0 {
			dst[i] = nil
			continue
		}
		if k == vec.Any || (escs != nil && escs[i>>3]&bit != 0) {
			v, m, err := (ObjectSerde{}).decodeValue(data[pos:])
			if err != nil {
				return fmt.Errorf("%w: column %d: %v", ErrCorruptRow, i, err)
			}
			dst[i] = v
			pos += m
			continue
		}
		switch k {
		case vec.Int64:
			u, m := binary.Uvarint(data[pos:])
			if m <= 0 {
				return ErrCorruptRow
			}
			dst[i] = int64(u>>1) ^ -int64(u&1)
			pos += m
		case vec.Float64:
			if len(data)-pos < 8 {
				return ErrCorruptRow
			}
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		case vec.String:
			ln, m := binary.Uvarint(data[pos:])
			if m <= 0 || ln > uint64(len(data)-pos-m) {
				return ErrCorruptRow
			}
			pos += m
			dst[i] = string(data[pos : pos+int(ln)])
			pos += int(ln)
		case vec.Bool:
			if pos >= len(data) {
				return ErrCorruptRow
			}
			dst[i] = data[pos] != 0
			pos++
		default:
			return fmt.Errorf("%w: column %d has unknown kind %d", ErrCorruptRow, i, k)
		}
	}
	if pos != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(data)-pos)
	}
	return nil
}
