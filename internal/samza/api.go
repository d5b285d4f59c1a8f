// Package samza implements the distributed stream processing framework
// SamzaSQL executes on, modeled on Apache Samza 0.9 (§2): jobs composed of
// containers and tasks, partition-aligned task assignment, a Map/Reduce-like
// StreamTask API, checkpoint streams, changelog-backed local state, and
// bootstrap streams consumed to completion before regular input.
package samza

import (
	"fmt"

	"samzasql/internal/kafka"
	"samzasql/internal/trace"
)

// IncomingMessageEnvelope is one message delivered to a task's Process.
type IncomingMessageEnvelope struct {
	// Stream and Partition identify the source system-stream-partition.
	Stream    string
	Partition int32
	// Offset is the message's position within the partition.
	Offset int64
	// Key and Value are the raw payload bytes; serdes are applied by the
	// task (or by the SamzaSQL operator layer above it).
	Key   []byte
	Value []byte
	// Timestamp is the producer-supplied event time (Unix millis).
	Timestamp int64
	// Trace is the message's trace context, copied from the underlying
	// kafka.Message. Zero (one bool check) for unsampled messages.
	Trace trace.Context
}

// TP returns the envelope's topic-partition.
func (e *IncomingMessageEnvelope) TP() kafka.TopicPartition {
	return kafka.TopicPartition{Topic: e.Stream, Partition: e.Partition}
}

// OutgoingMessageEnvelope is one message a task emits via the collector.
type OutgoingMessageEnvelope struct {
	// Stream is the destination topic.
	Stream string
	// Partition selects the destination partition. A non-negative value
	// names an explicit partition and is passed to the broker unchanged;
	// any negative value delegates partitioning to the broker, which
	// FNV-hashes Key over the topic's partitions (empty keys land on
	// partition 0). The collector never rewrites this field — the sign is
	// the whole contract.
	Partition int32
	Key       []byte
	Value     []byte
	Timestamp int64
	// Trace, when sampled, links the produced message into the emitting
	// task's trace (built via trace.Active.Outgoing). The zero value lets
	// the broker's own sampler decide instead.
	Trace trace.Context
}

// MessageCollector receives messages a task produces during Process.
type MessageCollector interface {
	Send(env OutgoingMessageEnvelope) error
}

// BatchCollector is a MessageCollector that can also flush a whole block of
// output messages in one producer call. The framework's collector
// implements it; batched tasks type-assert for it and fall back to
// per-message sends against plain collectors (test fakes).
//
// The broker copies every key and value into the log, so callers may reuse
// msgs and the bytes behind them as soon as SendBatch returns. Message
// Partition fields follow the OutgoingMessageEnvelope sign contract
// (negative delegates to the broker's key hash).
type BatchCollector interface {
	MessageCollector
	SendBatch(stream string, msgs []kafka.Message) error
}

// Coordinator lets a task request commits and shutdown, mirroring Samza's
// TaskCoordinator.
type Coordinator interface {
	// Commit requests a checkpoint after the current message completes.
	Commit()
	// Shutdown requests an orderly stop of the whole container after the
	// current message completes.
	Shutdown()
}

// StreamTask is the processing interface for one partition's worth of
// messages, analogous to Samza's StreamTask. Implementations need not be
// safe for concurrent use: the framework serializes calls per task
// instance. Distinct instances run concurrently (one goroutine per task),
// so state a TaskFactory shares across instances must be synchronized.
type StreamTask interface {
	// Init is called once before any message is delivered, after local
	// state has been restored from changelogs.
	Init(ctx *TaskContext) error
	// Process handles one message.
	Process(env IncomingMessageEnvelope, collector MessageCollector, coord Coordinator) error
}

// BatchedStreamTask is implemented by tasks with a vectorized path: the
// container delivers a whole polled batch (all from one topic-partition, in
// offset order) per call instead of one message at a time, amortizing
// virtual dispatch, decode and trace bookkeeping across the batch. The
// per-message semantics are the task's to preserve: a returned error is
// positioned at the batch, offsets advance past the whole batch only on
// success, and commit/shutdown requests are honored at the batch boundary.
// pollNs is the batch's poll anchor timestamp (UnixNano), used by tasks
// that replay trace spans for sampled messages inside the batch.
type BatchedStreamTask interface {
	StreamTask
	ProcessBatch(envs []IncomingMessageEnvelope, collector MessageCollector, coord Coordinator, pollNs int64) error
}

// WindowableTask is implemented by tasks that want periodic Window calls
// (used by hopping/tumbling aggregate operators to emit on intervals).
type WindowableTask interface {
	// Window fires on the job's configured window interval.
	Window(collector MessageCollector, coord Coordinator) error
}

// ClosableTask is implemented by tasks that hold resources to release at
// shutdown.
type ClosableTask interface {
	Close() error
}

// TaskName names a task within a job; Samza names tasks after the partition
// they own.
type TaskName string

// TaskNameFor builds the canonical task name for a partition.
func TaskNameFor(partition int32) TaskName {
	return TaskName(fmt.Sprintf("Partition-%d", partition))
}
