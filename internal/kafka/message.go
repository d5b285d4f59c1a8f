// Package kafka implements an in-process, partitioned, offset-addressed,
// replayable commit log modeled on Apache Kafka's topic/partition/offset
// data model. It is the messaging substrate SamzaSQL-Go executes on.
//
// The package reproduces the properties the paper's evaluation depends on:
// per-partition total ordering, dense sequential offsets, replay from any
// retained offset, consumer-group offset commits, key-based partitioning,
// size-bounded retention, and key-compacted topics (used for changelog
// streams backing Samza local state).
package kafka

import (
	"fmt"

	"samzasql/internal/trace"
)

// Message is a single record in a partition. Key and Value are opaque byte
// slices; interpretation is left to serdes layered above the log. The log
// stores a copy of a produced message; a fetched message's Key and Value are
// read-only views into that copy.
type Message struct {
	// Topic and Partition identify where the message is (or will be) stored.
	Topic     string
	Partition int32
	// Append marks a record whose Value extends its key's value instead of
	// replacing it (a changelog append). Compaction keeps a key's latest
	// full record and every append after it; a tombstone is never one.
	Append bool
	// Offset is the dense per-partition sequence number assigned at append
	// time. For messages that have not been appended yet it is ignored.
	Offset int64
	// Key is the partitioning and compaction key. May be nil.
	Key []byte
	// Value is the payload. A nil Value is a tombstone on compacted topics.
	Value []byte
	// Timestamp is the event time in Unix milliseconds as supplied by the
	// producer. The log orders by offset, never by timestamp.
	Timestamp int64
	// Trace is the message's trace context (the moral equivalent of a trace
	// record header). The zero value — every unsampled message — costs one
	// bool check downstream. Attached by the broker at produce time when
	// sampling is enabled (Broker.SetTraceSampling), or carried through from
	// an upstream sampled message.
	Trace trace.Context
}

// Size returns the retention-accounting size of the message in bytes.
func (m *Message) Size() int {
	return len(m.Key) + len(m.Value) + messageOverhead
}

// messageOverhead approximates per-record bookkeeping bytes (offset,
// timestamp, lengths) the way Kafka's log format charges a record header.
const messageOverhead = 24

// TopicPartition names one partition of one topic.
type TopicPartition struct {
	Topic     string
	Partition int32
}

func (tp TopicPartition) String() string {
	return fmt.Sprintf("%s-%d", tp.Topic, tp.Partition)
}
