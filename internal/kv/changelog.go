package kv

import (
	"fmt"

	"samzasql/internal/kafka"
)

// Changelog is the producer half of a changelog-backed store: it puts write
// batches on one partition of a compacted Kafka changelog topic, each batch
// as one contiguous run. The pending records are views of the caller's keys
// and values: every write is produced before the call that made it returns,
// and the broker copies the bytes into the log, so nothing is copied twice.
// A Changelog is owned by a single task goroutine.
//
// A produce the broker refuses (the topic was deleted under the task)
// becomes a sticky *ChangelogError: the changelog stops producing, and its
// owner reads Err after each block and fails the task before it
// checkpoints, so the restarted task restores from what the changelog
// holds.
type Changelog struct {
	broker    *kafka.Broker
	topic     string
	partition int32

	pending []kafka.Message
	err     error
}

// ChangelogStore wraps a Store, mirroring every write to its Changelog so
// the state can be rebuilt after a task failure, exactly as Samza snapshots
// local state (§2, §4.3). The changelog partition matches the task's input
// partition so restored state lands on the task that owns the keys.
//
// The changelog writes through: every Put, Delete and WriteMany is on the
// topic by the time the call returns, so the changelog is always at or
// ahead of the offsets the container commits and operators that keep input
// offsets in their state recognise replayed messages after a restore. A
// WriteMany is produced as one batch — one lock acquisition and one
// subscriber wakeup on the partition — so writes that only make sense
// together reach the log together. Like the stores it wraps, a
// ChangelogStore is owned by a single task goroutine.
//
// The Store interface has no error channel, so a refused produce surfaces
// as the Changelog's sticky Err.
type ChangelogStore struct {
	Store
	Changelog
}

// ChangelogError is a changelog store's failure to produce to its topic.
// The inner store holds writes the changelog lacks, so the store must not be
// used past it.
type ChangelogError struct {
	Topic     string
	Partition int32
	Err       error
}

func (e *ChangelogError) Error() string {
	return fmt.Sprintf("kv: changelog %s-%d: %v", e.Topic, e.Partition, e.Err)
}

func (e *ChangelogError) Unwrap() error { return e.Err }

// NewChangelogStore creates (if needed) the compacted changelog topic with
// the given partition count and returns a store mirroring to one partition.
func NewChangelogStore(inner Store, broker *kafka.Broker, topic string, partitions, partition int32) (*ChangelogStore, error) {
	err := broker.EnsureTopic(topic, kafka.TopicConfig{
		Partitions: partitions,
		Compacted:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("kv: changelog topic: %w", err)
	}
	return &ChangelogStore{
		Store:     inner,
		Changelog: Changelog{broker: broker, topic: topic, partition: partition},
	}, nil
}

// SetWriteBatchSize is a no-op kept for callers that still set a batch size
// of 1, such as the repository benchmark: every write reaches the topic
// before the call returns, which is the only behaviour left.
func (c *ChangelogStore) SetWriteBatchSize(int) {}

// Put writes through to the inner store and produces the changelog record.
func (c *ChangelogStore) Put(key, value []byte) {
	c.Store.Put(key, value)
	c.buffer(key, value, false)
	c.produce()
}

// Delete removes the key and produces a tombstone for the changelog.
func (c *ChangelogStore) Delete(key []byte) bool {
	ok := c.Store.Delete(key)
	c.buffer(key, nil, false)
	c.produce()
	return ok
}

// buffer queues one mirrored write over the caller's key and value bytes,
// which must stay unchanged until the next produce. A nil value is a
// tombstone; app marks an append record.
func (c *Changelog) buffer(key, value []byte, app bool) {
	// An empty value is a value; only nil replays as a delete.
	m := kafka.Message{Partition: c.partition, Append: app, Value: value}
	if len(key) > 0 {
		m.Key = key // an empty key goes on the log as no key
	}
	c.pending = append(c.pending, m)
}

// produce puts the queued records on the changelog topic as one batch.
// Callers invoke it after a complete write batch, so nothing is ever left
// queued between writes. The first failure sticks (Err): later batches are
// dropped unproduced, since the log already misses one.
func (c *Changelog) produce() {
	if len(c.pending) == 0 {
		return
	}
	if c.err == nil {
		if err := c.broker.ProduceBatch(c.topic, c.pending); err != nil {
			c.err = &ChangelogError{Topic: c.topic, Partition: c.partition, Err: err}
		}
	}
	// The broker copied the records into the log: the headers are free for
	// the next batch, and the caller's bytes are the caller's again.
	c.pending = c.pending[:0]
}

// Err returns the sticky *ChangelogError of the first write the changelog
// refused, or nil.
func (c *Changelog) Err() error { return c.err }

// DetachChangelog hands the state of store s over to a caller that keeps
// it resident: it empties the store underneath s's changelog mirror,
// producing no tombstones, and returns the changelog, through which the
// caller writes from then on. The changelog stays the state's only durable
// copy; a restarted task restores the store from it and detaches again. A
// store without a changelog returns nil and is left as it is. The caller
// reads whatever it needs out of s first.
func DetachChangelog(s Store) *Changelog {
	if d, ok := s.(interface{ detachChangelog() *Changelog }); ok {
		return d.detachChangelog()
	}
	return nil
}

func (c *ChangelogStore) detachChangelog() *Changelog {
	c.Store = NewStore()
	return &c.Changelog
}

// Restore rebuilds the inner store by replaying the changelog partition from
// its start offset to the current high watermark, one write batch per read:
// a full record puts, an append record appends, a tombstone deletes. Reads
// go into one reused record buffer; the store copies the keys and values,
// which are views into the log, before the next read. It is called by the
// task runner before any input message is delivered after a (re)start.
func (c *ChangelogStore) Restore() error {
	tp := kafka.TopicPartition{Topic: c.topic, Partition: c.partition}
	start, err := c.broker.StartOffset(tp)
	if err != nil {
		return err
	}
	hwm, err := c.broker.HighWatermark(tp)
	if err != nil {
		return err
	}
	var msgs []kafka.Record
	var ops []WriteOp
	for off := start; off < hwm; {
		if msgs, err = c.broker.Read(msgs[:0], tp, off, 1024); err != nil {
			return err
		}
		if len(msgs) == 0 {
			break // compaction gap at the tail; nothing further to replay
		}
		ops = ops[:0]
		for i := range msgs {
			m := &msgs[i]
			op := WriteOp{Key: m.Key, Value: m.Value}
			switch {
			case m.Value == nil:
				op.Kind = OpDelete
			case m.Append:
				op.Kind = OpAppend
			}
			ops = append(ops, op)
		}
		WriteMany(c.Store, ops)
		off = msgs[len(msgs)-1].Offset + 1
	}
	return nil
}
