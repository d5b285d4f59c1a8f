package kv

import (
	"fmt"

	"samzasql/internal/kafka"
)

// changelogSlabSize is the smallest arena slab the changelog copies
// key/value bytes into.
const changelogSlabSize = 64 << 10

// ChangelogStore wraps a Store, mirroring every write to a compacted Kafka
// changelog topic partition so the state can be rebuilt after a task
// failure, exactly as Samza snapshots local state (§2, §4.3). The changelog
// partition matches the task's input partition so restored state lands on
// the task that owns the keys.
//
// The changelog writes through: every Put, Delete and WriteMany is on the
// topic by the time the call returns, so the changelog is always at or
// ahead of the offsets the container commits and operators that keep input
// offsets in their state recognise replayed messages after a restore. A
// WriteMany is produced as one batch — one lock acquisition and one
// subscriber wakeup on the partition — so writes that only make sense
// together reach the log together. Each key/value is copied once, into an
// arena slab the broker copies out of on produce; the slab is then reused.
// Like the stores it wraps, a ChangelogStore is owned by a single task
// goroutine.
type ChangelogStore struct {
	Store
	broker    *kafka.Broker
	topic     string
	partition int32

	pending []kafka.Message
	arena   []byte
}

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
		broker:    broker,
		topic:     topic,
		partition: partition,
	}, nil
}

// SetWriteBatchSize is a no-op kept for callers that still set a batch size
// of 1, such as the repository benchmark: every write reaches the topic
// before the call returns, which is the only behaviour left.
func (c *ChangelogStore) SetWriteBatchSize(int) {}

// Put writes through to the inner store and produces the changelog record.
func (c *ChangelogStore) Put(key, value []byte) {
	c.Store.Put(key, value)
	c.buffer(key, value)
	c.produce()
}

// Delete removes the key and produces a tombstone for the changelog.
func (c *ChangelogStore) Delete(key []byte) bool {
	ok := c.Store.Delete(key)
	c.buffer(key, nil)
	c.produce()
	return ok
}

// copyToArena copies b into the current slab and returns the aliasing
// slice. Slices returned since the last produce stay valid: a slab that
// fills is left to the pending records aliasing it and replaced by one twice
// its size, so the slab kept across produces grows to hold a whole batch.
func (c *ChangelogStore) copyToArena(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(c.arena)-len(c.arena) < len(b) {
		c.arena = make([]byte, 0, max(changelogSlabSize, 2*cap(c.arena), len(b)))
	}
	start := len(c.arena)
	c.arena = append(c.arena, b...)
	return c.arena[start:len(c.arena):len(c.arena)]
}

// buffer queues one mirrored write, copying key and value once into the
// batch arena. A nil value is a tombstone.
func (c *ChangelogStore) buffer(key, value []byte) {
	m := kafka.Message{
		Partition: c.partition,
		Key:       c.copyToArena(key),
	}
	if value != nil {
		m.Value = c.copyToArena(value)
		if m.Value == nil {
			m.Value = []byte{} // an empty value is a value; nil would replay as a delete
		}
	}
	c.pending = append(c.pending, m)
}

// produce puts the queued records on the changelog topic as one batch.
// Callers invoke it after a complete write batch, so nothing is ever left
// queued between writes. A broker failure here is a programming error (the
// topic exists and the partition was validated at construction) and panics,
// as the byte Store interface has no error channel.
func (c *ChangelogStore) produce() {
	if len(c.pending) == 0 {
		return
	}
	if err := c.broker.ProduceBatch(c.topic, c.pending); err != nil {
		panic(fmt.Sprintf("kv: changelog append: %v", err))
	}
	// The broker copied the records into the log: headers and slab are
	// free for the next batch.
	c.pending = c.pending[:0]
	c.arena = c.arena[:0]
}

// Restore rebuilds the inner store by replaying the changelog partition from
// its start offset to the current high watermark. It is called by the task
// runner before any input message is delivered after a (re)start.
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
	off := start
	for off < hwm {
		msgs, wait, err := c.broker.Fetch(tp, off, 1024)
		if err != nil {
			return err
		}
		if wait != nil {
			break // compaction gap at the tail; nothing further to replay
		}
		for _, m := range msgs {
			if m.Value == nil {
				c.Store.Delete(m.Key)
			} else {
				c.Store.Put(m.Key, m.Value)
			}
		}
		off = msgs[len(msgs)-1].Offset + 1
	}
	return nil
}
