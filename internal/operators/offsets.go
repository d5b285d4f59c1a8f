package operators

import (
	"fmt"

	"samzasql/internal/kafka"
	"samzasql/internal/serde"
)

// Stateful operators remember, inside each state row, the offset of the
// last message applied from every source partition. That makes re-delivered
// messages (Samza replays after a failure, §4.3) no-ops without extra store
// round-trips: the vector rides along in the state value that is read and
// written anyway. It is keyed per (stream, partition) because one operator
// instance can see several partitions (a join's two inputs; the bounded
// table-mode executor feeds all partitions through one instance).

// appliedOffsets is the (source, last applied offset) vector of one state
// row.
type appliedOffsets []sourceOffset

type sourceOffset struct {
	src  string
	last int64
}

// seen reports whether the offset was already applied from source src.
func (v appliedOffsets) seen(src string, offset int64) bool {
	for i := range v {
		if v[i].src == src {
			return offset <= v[i].last
		}
	}
	return false
}

// update records offset for source src, returning the updated vector.
func (v appliedOffsets) update(src string, offset int64) appliedOffsets {
	for i := range v {
		if v[i].src == src {
			v[i].last = offset
			return v
		}
	}
	return append(v, sourceOffset{src, offset})
}

// appendRow appends v as the object-serde row [src1, last1, src2, last2, …]
// (the streaming aggregate's state row carries it that way).
func (v appliedOffsets) appendRow(dst []byte) []byte {
	dst = serde.AppendRowHeader(dst, 2*len(v))
	for _, so := range v {
		dst = serde.AppendLong(serde.AppendString(dst, so.src), so.last)
	}
	return dst
}

// readOffsetsRow decodes exactly one appendRow row, interning source names.
func readOffsetsRow(src []byte, names sourceNames) (appliedOffsets, error) {
	r := serde.NewReader(src)
	n := r.RowHeader()
	if r.Err() == nil && n%2 != 0 {
		return nil, fmt.Errorf("operators: offset vector has %d elements, want (source, offset) pairs", n)
	}
	var v appliedOffsets
	for ; n > 0 && r.Err() == nil; n -= 2 {
		name, last := r.Str(), r.Long()
		if r.Err() == nil {
			v = append(v, sourceOffset{names.intern(name), last})
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("operators: offset vector: %w", err)
	}
	return v, nil
}

// sourceNames interns the source names of decoded offset vectors, so
// decoding a state row allocates no string per source.
type sourceNames map[string]string

func (n sourceNames) intern(name []byte) string {
	if s, ok := n[string(name)]; ok {
		return s
	}
	s := string(name)
	n[s] = s
	return s
}

// sourceKeys caches the "stream:partition" strings so the per-block path
// does not allocate.
type sourceKeys struct {
	cache map[kafka.TopicPartition]string
}

// keyFor returns the source key of a block: a polled block carries one
// (stream, partition) for all its rows.
func (s *sourceKeys) keyFor(stream string, partition int32) string {
	if s.cache == nil {
		s.cache = map[kafka.TopicPartition]string{}
	}
	tp := kafka.TopicPartition{Topic: stream, Partition: partition}
	k, ok := s.cache[tp]
	if !ok {
		k = fmt.Sprintf("%s:%d", stream, partition)
		s.cache[tp] = k
	}
	return k
}
