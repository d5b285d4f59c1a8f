package operators

import (
	"fmt"

	"samzasql/internal/kafka"
)

// Stateful operators remember, inside each state row, the offset of the
// last message applied from every source partition. That makes re-delivered
// messages (Samza replays after a failure, §4.3) no-ops without extra store
// round-trips: the vector rides along in the state value that is read and
// written anyway. It is keyed per (stream, partition) because one operator
// instance can see several partitions (a join's two inputs; the bounded
// table-mode executor feeds all partitions through one instance).

// offsetVector is a flat [key1, off1, key2, off2, ...] list of source
// identifiers and last-applied offsets, stored as a nested row.
type offsetVector []any

// seen reports whether the offset was already applied from source key.
func (v offsetVector) seen(key string, offset int64) bool {
	for i := 0; i+1 < len(v); i += 2 {
		if k, ok := v[i].(string); ok && k == key {
			last, _ := v[i+1].(int64)
			return offset <= last
		}
	}
	return false
}

// update records offset for source key, returning the updated vector.
func (v offsetVector) update(key string, offset int64) offsetVector {
	for i := 0; i+1 < len(v); i += 2 {
		if k, ok := v[i].(string); ok && k == key {
			v[i+1] = offset
			return v
		}
	}
	return append(v, key, offset)
}

// appliedOffsets is the typed form of offsetVector for state rows with a
// binary layout of their own (the sliding window's): the same (source, last
// applied offset) pairs without boxing an offset per update.
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
