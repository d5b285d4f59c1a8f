package kafka

// segment is a contiguous offset range of records within a partition,
// beginning at baseOffset. Partitions are chains of segments; retention
// drops whole segments from the head, which is how Kafka bounds disk usage
// without rewriting the log. After compaction a segment's records become
// sparse in offset but the segment still covers its full [base, upper)
// range, so offset arithmetic in the partition stays simple.
type segment struct {
	baseOffset  int64
	upperOffset int64 // next offset after this segment's range
	records     []Message
	sizeBytes   int
	dense       bool // records are contiguous: offset = base + index
	clean       bool // compaction survivor: unique keys, no tombstones
}

func newSegment(base int64) *segment {
	return &segment{baseOffset: base, upperOffset: base, dense: true}
}

// newSegmentLike rolls a fresh active segment once prev fills, pre-sizing the
// record slice to prev's count: segments roll at a byte bound, so the
// previous segment's record count predicts the next one's and steady-state
// appends allocate once per segment instead of doubling through growth.
func newSegmentLike(prev *segment) *segment {
	s := newSegment(prev.nextOffset())
	if n := len(prev.records); n > 0 {
		s.records = make([]Message, 0, n)
	}
	return s
}

// append adds a record, which must already carry its final offset equal to
// the segment's upper bound (dense append).
func (s *segment) append(m Message) {
	s.records = append(s.records, m)
	s.sizeBytes += m.Size()
	s.upperOffset++
}

// nextOffset is the offset one past the last offset covered by the segment.
func (s *segment) nextOffset() int64 { return s.upperOffset }

// contains reports whether offset falls inside this segment's range.
func (s *segment) contains(offset int64) bool {
	return offset >= s.baseOffset && offset < s.upperOffset
}

// fetch returns up to max records with offset >= from, as a view of the
// segment's own record slice. Records are offset-ordered in dense and
// compacted segments alike; a compacted segment has gaps, so the first
// record at or past from is found by binary search rather than by index.
func (s *segment) fetch(from int64, max int) []Message {
	if max <= 0 {
		return nil
	}
	var i int
	if s.dense {
		if from > s.baseOffset {
			i = int(from - s.baseOffset)
		}
	} else {
		// First record with Offset >= from: sort.Search without its
		// closure, which escapes on the consumers' poll path.
		lo, hi := 0, len(s.records)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); s.records[mid].Offset < from {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i = lo
	}
	if i >= len(s.records) {
		return nil
	}
	j := i + max
	if j > len(s.records) {
		j = len(s.records)
	}
	return s.records[i:j]
}
