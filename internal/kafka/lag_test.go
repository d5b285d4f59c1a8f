package kafka

import (
	"context"
	"testing"
	"time"

	"samzasql/internal/metrics"
)

// produceN appends n messages to topic partition p.
func produceN(t *testing.T, b *Broker, topic string, p int32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.Produce(topic, Message{Partition: p, Key: []byte("k"), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConsumerLagReplayFromZero covers the satellite's replay case: a fresh
// consumer assigned at the start of a populated log reports the whole
// retained log as lag, per partition and in total.
func TestConsumerLagReplayFromZero(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("in", TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 10)
	produceN(t, b, "in", 1, 25)

	c := NewConsumer(b, "g")
	defer c.Close()
	reg := metrics.NewRegistry()
	for p := int32(0); p < 2; p++ {
		tp := TopicPartition{Topic: "in", Partition: p}
		if err := c.Assign(tp); err != nil {
			t.Fatal(err)
		}
		c.BindLagGauge(tp, reg.Gauge("lag"+string(rune('0'+p))))
	}
	total, err := c.UpdateLag()
	if err != nil {
		t.Fatal(err)
	}
	if total != 35 {
		t.Fatalf("total lag = %d, want 35", total)
	}
	snap := reg.Snapshot()
	if snap.Gauges["lag0"] != 10 || snap.Gauges["lag1"] != 25 {
		t.Fatalf("per-partition lag gauges %v, want 10 and 25", snap.Gauges)
	}
}

// TestConsumerLagCaughtUp covers the satellite's caught-up case: after the
// consumer polls to the high watermark, every partition's lag gauge drops
// to 0 — and new appends raise it again.
func TestConsumerLagCaughtUp(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("in", TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	tp := TopicPartition{Topic: "in", Partition: 0}
	produceN(t, b, "in", 0, 8)

	c := NewConsumer(b, "g")
	defer c.Close()
	reg := metrics.NewRegistry()
	if err := c.Assign(tp); err != nil {
		t.Fatal(err)
	}
	c.BindLagGauge(tp, reg.Gauge("lag"))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	consumed := 0
	for consumed < 8 {
		msgs, err := c.Poll(ctx, 64)
		if err != nil {
			t.Fatal(err)
		}
		consumed += len(msgs)
	}
	total, err := c.UpdateLag()
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Fatalf("caught-up lag = %d, want 0", total)
	}
	if got := reg.Snapshot().Gauges["lag"]; got != 0 {
		t.Fatalf("caught-up lag gauge = %d, want 0", got)
	}

	produceN(t, b, "in", 0, 3)
	if total, err = c.UpdateLag(); err != nil || total != 3 {
		t.Fatalf("lag after new appends = %d (err %v), want 3", total, err)
	}
	if got := reg.Snapshot().Gauges["lag"]; got != 3 {
		t.Fatalf("lag gauge after new appends = %d, want 3", got)
	}
}

// TestHighWatermarkDoesNotWaitForAppender: watermark readers (lag gauges,
// output watchers) must not queue behind the partition lock — an appender
// descheduled while holding it would stall them for its whole time off the
// processor. The test stands in for that appender by holding the lock itself.
func TestHighWatermarkDoesNotWaitForAppender(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "in", TopicConfig{Partitions: 1})
	produceN(t, b, "in", 0, 5)
	tp := TopicPartition{Topic: "in", Partition: 0}
	p, err := b.partition(tp)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	got := make(chan int64, 1)
	go func() {
		hwm, _ := b.HighWatermark(tp)
		got <- hwm
	}()
	select {
	case hwm := <-got:
		p.mu.Unlock()
		if hwm != 5 {
			t.Fatalf("high watermark = %d, want 5", hwm)
		}
	case <-time.After(2 * time.Second):
		p.mu.Unlock()
		t.Fatal("HighWatermark blocked behind the partition lock")
	}
}
