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

// Message is a record to produce: the type Produce and ProduceBatch take.
// Key and Value are opaque byte slices; interpretation is left to serdes
// layered above the log, which stores a copy of every produced message.
// Reads of the log return Records, not Messages.
type Message struct {
	// Partition is where the message is stored. A negative Partition lets
	// the broker pick one by key hash (ProduceBatch writes it back).
	Partition int32
	// Append marks a record whose Value extends its key's value instead of
	// replacing it (a changelog append). Compaction keeps a key's latest
	// full record and every append after it; a tombstone is never one.
	Append bool
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

// Record is one record read back from the log: what Fetch, Read and
// Consumer.Poll return and, as samza.IncomingMessageEnvelope, what a task
// receives, so a poll's buffer is the block a task processes. Key and Value
// are capped, read-only views into the log's immutable bytes and stay valid
// after the slice holding the Record is reused.
type Record struct {
	// Stream and Partition name the record's topic-partition; Offset is its
	// dense per-partition sequence number.
	Stream    string
	Partition int32
	Append    bool // a changelog append (see Message.Append)
	Offset    int64
	Key       []byte
	Value     []byte        // nil is a tombstone
	Timestamp int64         // producer-supplied event time, Unix millis
	Trace     trace.Context // zero for unsampled records
}

// Size returns the retention-accounting size of the record in bytes, the
// Size of the Message it was produced from.
func (r *Record) Size() int {
	return len(r.Key) + len(r.Value) + messageOverhead
}

// TP returns the record's topic-partition.
func (r *Record) TP() TopicPartition {
	return TopicPartition{Topic: r.Stream, Partition: r.Partition}
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
