// Package vec holds the kind-typed column vectors of a block of rows: one
// payload vector per column, typed from the planner's row type, plus a null
// bitmap. The scan decodes Avro straight into them, stateless operators run
// typed kernels over them and the insert encodes straight out of them, so
// no value between the decoder and the encoder is boxed in an interface —
// the AvroToArray/ArrayToAvro materialisation the paper blames for SamzaSQL's
// penalty against native jobs (§5.1, §7).
package vec

import (
	"fmt"
	"math"

	"samzasql/internal/sql/types"
)

// Kind is the payload layout of one column vector.
type Kind uint8

// Vector kinds. Any is the zero value: the escape vector for columns whose
// SQL type has no fixed layout (ANY, NULL, ARRAY, MAP), boxed as today.
const (
	Any     Kind = iota
	Int64        // BIGINT, TIMESTAMP, INTERVAL
	Float64      // DOUBLE
	Bool         // BOOLEAN
	String       // VARCHAR: bytes in the vector's arena, one extent per row
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Bool:
		return "bool"
	case String:
		return "string"
	}
	return "any"
}

// KindOf maps a planned SQL column type to its vector kind.
func KindOf(t types.Type) Kind {
	switch t {
	case types.Bigint, types.Timestamp, types.Interval:
		return Int64
	case types.Double:
		return Float64
	case types.Varchar:
		return String
	case types.Boolean:
		return Bool
	}
	return Any
}

// KindsOf compiles the vector kinds of a row type, once per plan; the join
// state's serde.RowCodec is compiled from the same kinds.
func KindsOf(row *types.RowType) []Kind {
	kinds := make([]Kind, row.Arity())
	for i, c := range row.Columns {
		kinds[i] = KindOf(c.Type)
	}
	return kinds
}

// Vec is one column of a block. Only the payload slice of its Kind is used;
// row r of a String vector is Data[Ext[2r]:Ext[2r+1]]. Bit r of Nulls marks
// row r NULL (its payload slot is unspecified); the bitmap grows only as far
// as the last NULL row, so a column without NULLs never touches it. An
// Absent vector is a column the sparse scan skipped: every row reads as NULL
// and no payload is kept. Vectors are arenas: Reset and Truncate keep every
// slice's capacity.
type Vec struct {
	Kind   Kind
	Absent bool
	// HasNull reports whether any row is NULL, so kernels over a column
	// without NULLs skip the bitmap.
	HasNull bool

	I64   []int64
	F64   []float64
	Bools []bool
	Data  []byte
	Ext   []uint32
	Any   []any
	Nulls []uint64
}

// Reset sizes v for n rows of kind k, all non-NULL, reusing capacity; an
// absent vector keeps no payload.
func (v *Vec) Reset(k Kind, n int, absent bool) {
	v.Kind, v.Absent, v.HasNull = k, absent, false
	v.Data, v.Nulls = v.Data[:0], v.Nulls[:0]
	if absent {
		n = 0
	}
	switch k {
	case Int64:
		v.I64 = resize(v.I64, n)
	case Float64:
		v.F64 = resize(v.F64, n)
	case Bool:
		v.Bools = resize(v.Bools, n)
	case String:
		v.Ext = resize(v.Ext, 2*n)
	default:
		v.Any = resize(v.Any, n)
	}
}

// Truncate empties v for appending rows of kind k.
func (v *Vec) Truncate(k Kind) {
	v.Kind, v.Absent, v.HasNull = k, false, false
	v.I64, v.F64, v.Bools = v.I64[:0], v.F64[:0], v.Bools[:0]
	v.Data, v.Ext, v.Any, v.Nulls = v.Data[:0], v.Ext[:0], v.Any[:0], v.Nulls[:0]
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// IsNull reports whether row r is NULL.
func (v *Vec) IsNull(r int) bool {
	return v.Absent || (v.HasNull && r>>6 < len(v.Nulls) && v.Nulls[r>>6]&(1<<(r&63)) != 0)
}

// SetNull marks row r NULL.
func (v *Vec) SetNull(r int) {
	v.HasNull = true
	for len(v.Nulls) <= r>>6 {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Nulls[r>>6] |= 1 << (r & 63)
	if v.Kind == Any {
		v.Any[r] = nil
	}
}

// Str returns row r of a String vector, aliasing the arena.
func (v *Vec) Str(r int) []byte { return v.Data[v.Ext[2*r]:v.Ext[2*r+1]] }

// SetStr copies s into the arena as row r of a String vector.
func (v *Vec) SetStr(r int, s []byte) error { return setStr(v, r, s) }

func setStr[S string | []byte](v *Vec, r int, s S) error {
	start := len(v.Data)
	if uint64(start)+uint64(len(s)) > math.MaxUint32 {
		return fmt.Errorf("vec: string arena over 4 GiB")
	}
	v.Data = append(v.Data, s...)
	v.Ext[2*r], v.Ext[2*r+1] = uint32(start), uint32(len(v.Data))
	return nil
}

// Value boxes row r: int64, float64, bool, string, the escape vector's own
// value, or nil for NULL — the row-oriented view of the column.
func (v *Vec) Value(r int) any {
	if v.IsNull(r) {
		return nil
	}
	switch v.Kind {
	case Int64:
		return v.I64[r]
	case Float64:
		return v.F64[r]
	case Bool:
		return v.Bools[r]
	case String:
		return string(v.Str(r))
	}
	return v.Any[r]
}

// Set unboxes x into row r: nil is NULL; an Int64 vector takes the integer
// types and a Float64 vector the numeric ones, converted exactly as the Avro
// encoder converts them for its long and double fields. Any other Go type a
// typed vector cannot hold is an error — the values the insert encoder
// already rejects.
func (v *Vec) Set(r int, x any) error {
	if x == nil {
		v.SetNull(r)
		return nil
	}
	v.clearNull(r)
	switch v.Kind {
	case Int64:
		switch t := x.(type) {
		case int64:
			v.I64[r] = t
			return nil
		case int:
			v.I64[r] = int64(t)
			return nil
		case int32:
			v.I64[r] = int64(t)
			return nil
		}
	case Float64:
		switch t := x.(type) {
		case float64:
			v.F64[r] = t
			return nil
		case int64:
			v.F64[r] = float64(t)
			return nil
		case float32:
			v.F64[r] = float64(t)
			return nil
		case int:
			v.F64[r] = float64(t)
			return nil
		}
	case Bool:
		if t, ok := x.(bool); ok {
			v.Bools[r] = t
			return nil
		}
	case String:
		if t, ok := x.(string); ok {
			return setStr(v, r, t)
		}
	default:
		v.Any[r] = x
		return nil
	}
	return fmt.Errorf("vec: %s column cannot hold %T", v.Kind, x)
}

// SetInt64 stores x as row r of an Int64 vector, without boxing it.
func (v *Vec) SetInt64(r int, x int64) {
	v.clearNull(r)
	v.I64[r] = x
}

func (v *Vec) clearNull(r int) {
	if v.HasNull && r>>6 < len(v.Nulls) {
		v.Nulls[r>>6] &^= 1 << (r & 63)
	}
}

// Grow appends a non-NULL row holding the kind's zero value (an empty
// string, a nil escape value) to v and returns its index.
func (v *Vec) Grow() int {
	var r int
	switch v.Kind {
	case Int64:
		r = len(v.I64)
		v.I64 = append(v.I64, 0)
	case Float64:
		r = len(v.F64)
		v.F64 = append(v.F64, 0)
	case Bool:
		r = len(v.Bools)
		v.Bools = append(v.Bools, false)
	case String:
		r = len(v.Ext) / 2
		v.Ext = append(v.Ext, 0, 0)
	default:
		r = len(v.Any)
		v.Any = append(v.Any, nil)
	}
	return r
}

// Append unboxes x into a new last row (see Set).
func (v *Vec) Append(x any) error {
	return v.Set(v.Grow(), x)
}

// SetFrom stores row sr of src, a vector of the same kind, as row r without
// boxing it.
func (v *Vec) SetFrom(r int, src *Vec, sr int) error {
	if src.Kind != v.Kind {
		return v.Set(r, src.Value(sr))
	}
	if src.IsNull(sr) {
		v.SetNull(r)
		return nil
	}
	v.clearNull(r)
	switch v.Kind {
	case Int64:
		v.I64[r] = src.I64[sr]
	case Float64:
		v.F64[r] = src.F64[sr]
	case Bool:
		v.Bools[r] = src.Bools[sr]
	case String:
		return v.SetStr(r, src.Str(sr))
	default:
		v.Any[r] = src.Any[sr]
	}
	return nil
}
