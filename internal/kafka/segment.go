package kafka

import (
	"encoding/binary"
	"math"
	"slices"
)

// segment is a contiguous offset range of records within a partition,
// beginning at baseOffset. Partitions are chains of segments; retention
// drops whole segments from the head, which is how Kafka bounds disk usage
// without rewriting the log. After compaction a segment's records become
// sparse in offset but the segment still covers its full [base, upper)
// range, so offset arithmetic in the partition stays simple.
//
// A segment holds no pointer per record: the records sit back to back in one
// byte arena (the framing is described at appendRecord), index[i] is where
// record i starts, and offsets are arithmetic (base + i) in a dense segment.
// Only a compaction survivor, whose offsets have gaps, keeps them in an
// []int64. The garbage collector therefore sees three pointer-free slices
// per segment however many records it holds, and fetches hand out Key and
// Value as views into the arena, which is never written below its length.
type segment struct {
	baseOffset  int64
	upperOffset int64 // next offset after this segment's range
	arena       []byte
	index       []uint32
	offsets     []int64 // nil while dense: record i is at baseOffset+i
	sizeBytes   int     // retention accounting: sum of Message.Size()
	clean       bool    // compaction survivor: per key a full record and the appends after it, no tombstones
}

func newSegment(base int64) *segment {
	return &segment{baseOffset: base, upperOffset: base}
}

// newSegmentLike rolls a fresh active segment once prev fills, pre-sizing the
// arena and index to prev's with a sixteenth to spare: segments roll at a
// byte bound, so the previous segment predicts the next one and steady-state
// appends allocate once per segment instead of growing through copies.
func newSegmentLike(prev *segment) *segment {
	s := newSegment(prev.nextOffset())
	if n := len(prev.index); n > 0 {
		s.index = make([]uint32, 0, n+n/16)
		s.arena = make([]byte, 0, len(prev.arena)+len(prev.arena)/16)
	}
	return s
}

// full reports whether the next record belongs in a new segment: the
// retention-accounted size reached the roll bound, or the arena grew past
// what a uint32 index entry can address.
func (s *segment) full(maxBytes int) bool {
	return s.sizeBytes >= maxBytes || uint64(len(s.arena)) > math.MaxUint32
}

// Record framing flags.
const (
	recKeyNil   = 1 << iota // Key is nil: no key length or bytes follow
	recValueNil             // Value is nil (a tombstone): no value length or bytes
	recAppend               // Message.Append: the value extends the key's value
)

// appendRecord frames m onto dst: a flags byte, the timestamp as a zigzag
// varint, the key and the value each as a uvarint length and its bytes
// (both absent when nil). Topic, partition and offset are the segment's to
// supply.
func appendRecord(dst []byte, m *Message) []byte {
	var flags byte
	if m.Key == nil {
		flags |= recKeyNil
	}
	if m.Value == nil {
		flags |= recValueNil
	}
	if m.Append {
		flags |= recAppend
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, m.Timestamp)
	if m.Key != nil {
		dst = binary.AppendUvarint(dst, uint64(len(m.Key)))
		dst = append(dst, m.Key...)
	}
	if m.Value != nil {
		dst = binary.AppendUvarint(dst, uint64(len(m.Value)))
		dst = append(dst, m.Value...)
	}
	return dst
}

// decodeRecord fills m's Key, Value, Append and Timestamp from the record
// framed at arena[pos:]. Key and Value are capped views into the arena, so a
// caller appending to one reallocates instead of overwriting the next
// record. The arena was written by appendRecord under the partition lock;
// it is trusted, not validated.
func decodeRecord(arena []byte, pos int, m *Record) {
	flags := arena[pos]
	pos++
	ts, n := binary.Varint(arena[pos:])
	pos += n
	m.Timestamp = ts
	m.Append = flags&recAppend != 0
	m.Key, pos = decodeBytes(arena, pos, flags&recKeyNil != 0)
	m.Value, _ = decodeBytes(arena, pos, flags&recValueNil != 0)
}

// recordKey returns the key of the record framed at arena[pos:], a capped
// view like decodeRecord's, without decoding the rest.
func recordKey(arena []byte, pos int) []byte {
	flags := arena[pos]
	_, n := binary.Varint(arena[pos+1:])
	key, _ := decodeBytes(arena, pos+1+n, flags&recKeyNil != 0)
	return key
}

// decodeBytes reads one length-prefixed field at arena[pos:], returning the
// capped view and the position after it; a nil field has no bytes framed.
func decodeBytes(arena []byte, pos int, isNil bool) ([]byte, int) {
	if isNil {
		return nil, pos
	}
	var ln int
	if b := arena[pos]; b < 0x80 {
		ln = int(b)
		pos++
	} else {
		u, n := binary.Uvarint(arena[pos:])
		ln = int(u)
		pos += n
	}
	end := pos + ln
	return arena[pos:end:end], end
}

// recordEnd is the arena position one past record i.
func (s *segment) recordEnd(i int) int {
	if i+1 < len(s.index) {
		return int(s.index[i+1])
	}
	return len(s.arena)
}

// offsetAt is the offset of record i.
func (s *segment) offsetAt(i int) int64 {
	if s.offsets == nil {
		return s.baseOffset + int64(i)
	}
	return s.offsets[i]
}

// encode frames m into the arena and charges its size; the caller owns the
// offset bookkeeping (append for dense segments, compaction for sparse).
func (s *segment) encode(m *Message) {
	s.index = append(s.index, uint32(len(s.arena)))
	s.arena = appendRecord(s.arena, m)
	s.sizeBytes += m.Size()
}

// maxFraming bounds the framing bytes of one record beyond its key and
// value: the flags byte and three varints.
const maxFraming = 1 + 3*binary.MaxVarintLen64

// append adds a record at the segment's upper bound (dense append). An arena
// that must grow doubles, up to the roll bound maxBytes: a partition's first
// segment starts empty, and append's quarter steps would copy its bytes some
// four times over before it rolls.
func (s *segment) append(m *Message, maxBytes int) {
	if need := len(m.Key) + len(m.Value) + maxFraming; cap(s.arena)-len(s.arena) < need {
		s.arena = slices.Grow(s.arena, max(need, min(len(s.arena), maxBytes-len(s.arena))))
	}
	s.encode(m)
	s.upperOffset++
}

// copyRecord appends src's record i, framed bytes unchanged, at the given
// offset of this (sparse) segment. The caller charges its size.
func (s *segment) copyRecord(src *segment, i int, offset int64) {
	s.index = append(s.index, uint32(len(s.arena)))
	s.arena = append(s.arena, src.arena[src.index[i]:src.recordEnd(i)]...)
	s.offsets = append(s.offsets, offset)
}

// nextOffset is the offset one past the last offset covered by the segment.
func (s *segment) nextOffset() int64 { return s.upperOffset }

// read appends to dst up to max records with offset >= from, decoding each
// in place (topic and partition from the caller, the offset from the index,
// key and value as views of the arena). Records are offset-ordered in dense and
// compacted segments alike; a compacted segment has gaps, so the first
// record at or past from is found by binary search rather than by
// arithmetic.
func (s *segment) read(dst []Record, from int64, max int, topic string, part int32) []Record {
	if max <= 0 {
		return dst
	}
	var i int
	if s.offsets == nil {
		if from > s.baseOffset {
			i = int(from - s.baseOffset)
		}
	} else {
		// First record with offset >= from: sort.Search without its
		// closure, which escapes on the consumers' poll path.
		lo, hi := 0, len(s.offsets)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); s.offsets[mid] < from {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i = lo
	}
	j := min(i+max, len(s.index))
	if i >= j {
		return dst
	}
	// Grow once, then write every record field exactly once in place.
	n := len(dst)
	dst = slices.Grow(dst, j-i)[:n+j-i]
	for k := n; i < j; i, k = i+1, k+1 {
		m := &dst[k]
		m.Stream, m.Partition, m.Offset = topic, part, s.offsetAt(i)
		decodeRecord(s.arena, int(s.index[i]), m)
	}
	return dst
}
