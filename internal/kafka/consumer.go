package kafka

import (
	"context"
	"sort"
	"sync"

	"samzasql/internal/metrics"
)

// Consumer reads a fixed assignment of partitions, tracking a position per
// partition. It supports blocking polls (via a persistent per-consumer
// notifier), committed-offset resume, and seek-to-beginning replay — the
// capabilities Samza task runners need.
//
// A Consumer is safe for concurrent use, but Poll is designed for a single
// polling goroutine (the Samza task loop); Assign/Seek/Position may be
// called from others.
type Consumer struct {
	broker *Broker
	group  string

	// notify is the consumer's persistent wakeup channel: every assigned
	// partition signals it (coalesced, non-blocking) on append. Poll blocks
	// on it when the assignment is caught up, so idle polls park one
	// goroutine on one channel instead of spawning a goroutine per
	// partition per wait.
	notify chan struct{}

	mu        sync.Mutex
	positions map[TopicPartition]int64
	// lagGauges holds the per-partition consumer-lag gauges bound via
	// BindLagGauge; UpdateLag refreshes them against the broker's high
	// watermarks.
	lagGauges map[TopicPartition]*metrics.Gauge
	// rr orders partitions for round-robin polling fairness. It doubles as
	// the cached assignment snapshot: it is rebuilt only by Assign, and
	// pollOnce iterates it under a single lock acquisition without copying.
	rr     []TopicPartition
	next   int
	closed bool
	// buf is the record buffer every poll decodes into and returns, so a
	// poll allocates nothing once it has grown to the largest batch.
	buf []Record
}

// NewConsumer creates a consumer for group. Group may be empty for an
// anonymous consumer that never commits.
func NewConsumer(b *Broker, group string) *Consumer {
	return &Consumer{
		broker:    b,
		group:     group,
		notify:    make(chan struct{}, 1),
		positions: make(map[TopicPartition]int64),
	}
}

// Assign adds tp to the consumer's assignment, resuming from the group's
// committed offset if one exists, else from the oldest retained offset. It
// subscribes the consumer's notifier to the partition and invalidates the
// cached poll snapshot.
func (c *Consumer) Assign(tp TopicPartition) error {
	start, ok := c.broker.CommittedOffset(c.group, tp)
	if !ok {
		var err error
		start, err = c.broker.StartOffset(tp)
		if err != nil {
			return err
		}
	}
	if err := c.broker.Subscribe(tp, c.notify); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.positions[tp]; !dup {
		c.rr = append(c.rr, tp)
		sort.Slice(c.rr, func(i, j int) bool {
			if c.rr[i].Topic != c.rr[j].Topic {
				return c.rr[i].Topic < c.rr[j].Topic
			}
			return c.rr[i].Partition < c.rr[j].Partition
		})
	}
	c.positions[tp] = start
	return nil
}

// Close detaches the consumer's notifier from every assigned partition.
// Poll must not be called after Close.
func (c *Consumer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	rr := make([]TopicPartition, len(c.rr))
	copy(rr, c.rr)
	c.mu.Unlock()
	for _, tp := range rr {
		c.broker.Unsubscribe(tp, c.notify)
	}
}

// Seek moves the consumer's position on tp. The partition must be assigned.
func (c *Consumer) Seek(tp TopicPartition, offset int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.positions[tp]; ok {
		c.positions[tp] = offset
	}
}

// Position returns the next offset the consumer will fetch from tp.
func (c *Consumer) Position(tp TopicPartition) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	off, ok := c.positions[tp]
	return off, ok
}

// Poll fetches up to max records, all from one partition in offset order,
// cycling over assigned partitions for fairness. If every partition is
// caught up it blocks until new data arrives on any of them or ctx is done.
// A nil slice with nil error means the consumer has no assignment.
//
// The returned slice is the consumer's own buffer and is valid only until
// the next Poll, which overwrites it; copy the records to keep them. A Samza
// task receives this very buffer as its block (samza.IncomingMessageEnvelope
// is Record). Key and Value are read-only views into the log's immutable
// bytes and stay valid after that.
func (c *Consumer) Poll(ctx context.Context, max int) ([]Record, error) {
	for {
		msgs, assigned, err := c.pollOnce(max)
		if err != nil {
			return nil, err
		}
		if len(msgs) > 0 {
			return msgs, nil
		}
		if !assigned {
			return nil, nil
		}
		// Caught up on every partition: park on the persistent notifier.
		// An append racing the fetches above has already queued a token
		// (partitions signal after assigning the offset), so the wakeup
		// cannot be lost; a stale token merely costs one re-poll.
		select {
		case <-c.notify:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// pollOnce tries each assigned partition once, starting after the last
// partition that produced data. The whole pass runs under one lock
// acquisition: broker reads never block and never call back into the
// consumer, and holding the lock lets the pass read rr (the assignment
// snapshot) and positions in place instead of copying them per call. Reads
// register no wait channel — Poll parks on the persistent notifier — so a
// caught-up partition is left with nothing to release.
//
//samzasql:hotpath
func (c *Consumer) pollOnce(max int) (msgs []Record, assigned bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rr) == 0 {
		return nil, false, nil
	}
	start := c.next
	for i := 0; i < len(c.rr); i++ {
		tp := c.rr[(start+i)%len(c.rr)]
		msgs, err := c.broker.Read(c.buf[:0], tp, c.positions[tp], max)
		if err != nil {
			return nil, true, err
		}
		if len(msgs) > 0 {
			c.buf = msgs
			c.positions[tp] = msgs[len(msgs)-1].Offset + 1
			c.next = (start + i + 1) % len(c.rr)
			return msgs, true, nil
		}
	}
	return nil, true, nil
}

// Commit records the current position of every assigned partition under the
// consumer's group.
func (c *Consumer) Commit() {
	if c.group == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for tp, pos := range c.positions {
		c.broker.CommitOffset(c.group, tp, pos)
	}
}

// BindLagGauge attaches a gauge to an assigned partition's consumer lag.
// UpdateLag refreshes it; a sampler calls that on its own cadence so the poll
// hot path never pays the broker high-watermark query. This lag counts
// fetched messages as consumed, which suits a reader that has handled a poll
// once it returns; a Samza task, which may still be inside the block it
// polled, reports lag from its finished offsets instead.
func (c *Consumer) BindLagGauge(tp TopicPartition, g *metrics.Gauge) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lagGauges == nil {
		c.lagGauges = map[TopicPartition]*metrics.Gauge{}
	}
	c.lagGauges[tp] = g
}

// UpdateLag recomputes per-partition consumer lag against the broker's high
// watermarks (Broker.HighWatermark), stores it into any bound gauges, and
// returns the total across the assignment. A replayed-from-zero partition
// reports the full retained log; a caught-up partition reports 0.
func (c *Consumer) UpdateLag() (int64, error) {
	c.mu.Lock()
	positions := make(map[TopicPartition]int64, len(c.positions))
	for tp, pos := range c.positions {
		positions[tp] = pos
	}
	gauges := make(map[TopicPartition]*metrics.Gauge, len(c.lagGauges))
	for tp, g := range c.lagGauges {
		gauges[tp] = g
	}
	c.mu.Unlock()

	var total int64
	for tp, pos := range positions {
		hwm, err := c.broker.HighWatermark(tp)
		if err != nil {
			return 0, err
		}
		lag := hwm - pos
		if lag < 0 {
			lag = 0
		}
		if g := gauges[tp]; g != nil {
			g.Set(lag)
		}
		total += lag
	}
	return total, nil
}

// Lag returns the total number of unconsumed messages across the
// assignment, refreshing any bound per-partition gauges along the way.
func (c *Consumer) Lag() (int64, error) {
	return c.UpdateLag()
}
