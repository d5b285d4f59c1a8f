package kafka

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
)

// Errors returned by broker administrative operations.
var (
	ErrTopicExists       = errors.New("kafka: topic already exists")
	ErrUnknownTopic      = errors.New("kafka: unknown topic")
	ErrUnknownPartition  = errors.New("kafka: unknown partition")
	ErrInvalidPartitions = errors.New("kafka: partition count must be positive")
)

// TopicConfig carries creation-time parameters for a topic.
type TopicConfig struct {
	// Partitions is the number of partitions; must be >= 1.
	Partitions int32
	// SegmentBytes caps each log segment; 0 selects the default (1 MiB).
	SegmentBytes int
	// RetentionBytes bounds the per-partition log size; records beyond it
	// expire from the head. <= 0 keeps everything.
	RetentionBytes int
	// Compacted selects key-compaction instead of size retention: the log
	// keeps at least the latest record per key. Used for changelog topics.
	Compacted bool
}

type topic struct {
	name       string
	config     TopicConfig
	partitions []*partition
}

// Broker is an in-process multi-topic commit log. It is safe for concurrent
// use by any number of producers and consumers.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*topic

	// committed holds consumer-group offset commits, keyed by group then
	// topic-partition — the moral equivalent of __consumer_offsets.
	committed map[string]map[TopicPartition]int64

	// compactEvery triggers compaction when a compacted partition
	// accumulates this many closed segments.
	compactEvery int
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics:       make(map[string]*topic),
		committed:    make(map[string]map[TopicPartition]int64),
		compactEvery: 4,
	}
}

// CreateTopic registers a topic. It fails if the topic already exists.
func (b *Broker) CreateTopic(name string, cfg TopicConfig) error {
	if cfg.Partitions <= 0 {
		return fmt.Errorf("%w: topic %q given %d", ErrInvalidPartitions, name, cfg.Partitions)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	t := &topic{name: name, config: cfg}
	for i := int32(0); i < cfg.Partitions; i++ {
		t.partitions = append(t.partitions, newPartition(name, i, cfg))
	}
	b.topics[name] = t
	return nil
}

// EnsureTopic creates the topic if absent and returns nil if it exists with
// any configuration.
func (b *Broker) EnsureTopic(name string, cfg TopicConfig) error {
	err := b.CreateTopic(name, cfg)
	if errors.Is(err, ErrTopicExists) {
		return nil
	}
	return err
}

// DeleteTopic removes a topic and all its data.
func (b *Broker) DeleteTopic(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	delete(b.topics, name)
	return nil
}

// Topics returns the sorted topic names.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.topics))
	for n := range b.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(name string) (int32, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return int32(len(t.partitions)), nil
}

func (b *Broker) partition(tp TopicPartition) (*partition, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[tp.Topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, tp.Topic)
	}
	if tp.Partition < 0 || int(tp.Partition) >= len(t.partitions) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPartition, tp)
	}
	return t.partitions[tp.Partition], nil
}

// Produce appends a message. If m.Partition is negative the broker picks the
// partition by FNV-hashing the key (or partition 0 for nil keys), mirroring
// Kafka's default partitioner. The key and value are copied into the log.
// The assigned offset is returned.
func (b *Broker) Produce(topicName string, m Message) (int64, error) {
	b.mu.RLock()
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	part := m.Partition
	if part < 0 {
		part = PartitionForKey(m.Key, int32(len(t.partitions)))
	}
	if int(part) >= len(t.partitions) {
		return 0, fmt.Errorf("%w: %s-%d", ErrUnknownPartition, topicName, part)
	}
	p := t.partitions[part]
	off := p.append(m)
	if t.config.Compacted && p.closedSegmentCount() >= b.compactEvery {
		p.compact()
	}
	return off, nil
}

// ProduceBatch appends msgs to topicName, resolving each message's
// partition exactly as Produce does. All the messages bound for one
// partition are appended in their order under one partition lock
// acquisition with one subscriber wakeup — a batch per partition, as
// Kafka's producer accumulates them — so an N-record flush (a changelog
// commit batch) costs the synchronization of a single append, and a
// consumer wakes once for its partition's share of a batch spread over many
// partitions instead of once per run of it. Every partition is resolved
// before anything is appended, so a batch naming a partition the topic
// lacks appends nothing. Each message's resolved partition is written back
// into msgs. The broker copies every key and value into the log, as
// Kafka does, so callers may reuse msgs and the bytes behind them as soon
// as it returns.
func (b *Broker) ProduceBatch(topicName string, msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	b.mu.RLock()
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	n := int32(len(t.partitions))
	var first [16]int32
	parts := first[:0] // the partitions the batch touches, in first-use order
	for i := range msgs {
		part, err := resolvePartition(&msgs[i], n, topicName)
		if err != nil {
			return err
		}
		msgs[i].Partition = part
		if !slices.Contains(parts, part) {
			parts = append(parts, part)
		}
	}
	for _, part := range parts {
		p := t.partitions[part]
		p.appendBatch(msgs)
		if t.config.Compacted && p.closedSegmentCount() >= b.compactEvery {
			p.compact()
		}
	}
	return nil
}

// resolvePartition maps one message to its destination partition: the
// explicit assignment when set, otherwise the key hash over n partitions.
func resolvePartition(m *Message, n int32, topicName string) (int32, error) {
	part := m.Partition
	if part < 0 {
		part = PartitionForKey(m.Key, n)
	}
	if part >= n {
		return 0, fmt.Errorf("%w: %s-%d", ErrUnknownPartition, topicName, part)
	}
	return part, nil
}

// PartitionForKey returns the partition Kafka's default partitioner would
// choose for key over n partitions: FNV-1a hash mod n, partition 0 for nil.
func PartitionForKey(key []byte, n int32) int32 {
	if n <= 1 || len(key) == 0 {
		return 0
	}
	h := fnv.New32a()
	//samzasql:ignore error-drop -- hash.Hash.Write is documented to never return an error
	h.Write(key)
	return int32(h.Sum32() % uint32(n))
}

// Fetch returns up to max records from tp starting at offset, in a slice
// the caller owns. Key and Value are read-only views into the log's
// immutable bytes and stay valid indefinitely. When the consumer is caught
// up it returns an empty batch plus a channel that is closed on the next
// append to the partition.
func (b *Broker) Fetch(tp TopicPartition, offset int64, max int) ([]Record, <-chan struct{}, error) {
	p, err := b.partition(tp)
	if err != nil {
		return nil, nil, err
	}
	return p.fetch(offset, max)
}

// Read is Fetch appending into dst, without a wait channel (see
// partition.read): an empty result means nothing at or past offset is left
// to read. Callers that fetch in a loop — the Consumer, changelog restore,
// bootstrap — reuse one record buffer across reads; Key and Value are views
// as Fetch's are.
func (b *Broker) Read(dst []Record, tp TopicPartition, offset int64, max int) ([]Record, error) {
	p, err := b.partition(tp)
	if err != nil {
		return dst, err
	}
	return p.read(dst, offset, max)
}

// Subscribe registers a persistent notification channel with tp: every
// append signals it with a coalesced, non-blocking send. Consumers use one
// buffered channel across their whole assignment so a caught-up poll parks
// on a single channel instead of spawning per-partition wait goroutines.
func (b *Broker) Subscribe(tp TopicPartition, ch chan struct{}) error {
	p, err := b.partition(tp)
	if err != nil {
		return err
	}
	p.subscribe(ch)
	return nil
}

// Unsubscribe removes a channel registered with Subscribe.
func (b *Broker) Unsubscribe(tp TopicPartition, ch chan struct{}) {
	p, err := b.partition(tp)
	if err != nil {
		return // topic deleted; nothing to detach from
	}
	p.unsubscribe(ch)
}

// HighWatermark returns the next offset that will be assigned in tp.
func (b *Broker) HighWatermark(tp TopicPartition) (int64, error) {
	p, err := b.partition(tp)
	if err != nil {
		return 0, err
	}
	return p.highWatermark(), nil
}

// StartOffset returns the oldest retained offset in tp.
func (b *Broker) StartOffset(tp TopicPartition) (int64, error) {
	p, err := b.partition(tp)
	if err != nil {
		return 0, err
	}
	return p.startOffset(), nil
}

// Compact forces a compaction pass on every partition of a compacted topic.
func (b *Broker) Compact(topicName string) error {
	b.mu.RLock()
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	for _, p := range t.partitions {
		p.compact()
	}
	return nil
}

// CommitOffset durably records the next-to-consume offset for a consumer
// group on one partition.
func (b *Broker) CommitOffset(group string, tp TopicPartition, offset int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.committed[group]
	if !ok {
		g = make(map[TopicPartition]int64)
		b.committed[group] = g
	}
	g[tp] = offset
}

// CommittedOffset returns the last committed offset for the group on tp and
// whether one exists.
func (b *Broker) CommittedOffset(group string, tp TopicPartition) (int64, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	g, ok := b.committed[group]
	if !ok {
		return 0, false
	}
	off, ok := g[tp]
	return off, ok
}
