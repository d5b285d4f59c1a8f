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

// IncomingMessageEnvelope is one message of a block delivered to a task:
// the record exactly as the consumer's poll read it from the log (Stream,
// Partition, Offset, Key, Value, Timestamp, Trace), with no copy between the
// poll and the task.
type IncomingMessageEnvelope = kafka.Record

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

// MessageCollector receives the messages a task produces. The framework's
// collector is safe for concurrent use; one instance serves every task of a
// container.
//
// SendBatch flushes a whole block of output messages in one producer call,
// preserving order. The broker copies every key and value into the log, so
// callers may reuse msgs and the bytes behind them as soon as SendBatch
// returns. Message Partition fields follow the OutgoingMessageEnvelope sign
// contract (negative delegates to the broker's key hash).
type MessageCollector interface {
	Send(env OutgoingMessageEnvelope) error
	SendBatch(stream string, msgs []kafka.Message) error
}

// BatchCollector is the name MessageCollector had while it lacked SendBatch.
// It stays only for the frozen benchmark module, which still type-asserts
// for it, and goes with that module's next revision (ROADMAP item 6).
type BatchCollector = MessageCollector

// Coordinator lets a task request commits and shutdown, mirroring Samza's
// TaskCoordinator. Requests take effect at the block boundary: the
// container acts on them once the whole block the request was made in has
// been processed.
type Coordinator interface {
	// Commit requests a checkpoint after the current block completes. The
	// checkpoint covers the whole block.
	Commit()
	// Shutdown requests an orderly stop of the whole container after the
	// current block completes; the final checkpoint covers the whole block.
	Shutdown()
}

// StreamTask is the processing interface for one partition's worth of
// messages, analogous to Samza's StreamTask. The container hands the task
// each polled block — every message of it from one topic-partition, in
// offset order — in one ProcessBatch call; Samza's per-message process is
// a block of one (JobSpec.BatchSize = 1). Implementations need not be safe
// for concurrent use: the framework serializes calls per task instance.
// Distinct instances run concurrently (one goroutine per task), so state a
// TaskFactory shares across instances must be synchronized.
type StreamTask interface {
	// Init is called once before any message is delivered, after local
	// state has been restored from changelogs.
	Init(ctx *TaskContext) error
	// ProcessBatch handles one block. envs is the consumer's own poll
	// buffer, valid until ProcessBatch returns: the next poll overwrites
	// it, so a task must not keep the slice or pointers into it (Key and
	// Value are views into the log and stay valid). A returned error fails
	// the whole block: the container checkpoints none of it, and a
	// restarted task replays it. Offsets advance past the block only on
	// success. pollNs is the block's poll time (UnixNano); the container
	// records no trace spans inside a block, so a task that wants span trees
	// for the sampled envelopes (Trace.Sampled) replays them from it.
	ProcessBatch(envs []IncomingMessageEnvelope, collector MessageCollector, coord Coordinator, pollNs int64) error
}

// TaskName names a task within a job; Samza names tasks after the partition
// they own.
type TaskName string

// TaskNameFor builds the canonical task name for a partition.
func TaskNameFor(partition int32) TaskName {
	return TaskName(fmt.Sprintf("Partition-%d", partition))
}
