package kafka

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustCreate(t *testing.T, b *Broker, name string, cfg TopicConfig) {
	t.Helper()
	if err := b.CreateTopic(name, cfg); err != nil {
		t.Fatalf("CreateTopic(%q): %v", name, err)
	}
}

func TestCreateTopicValidation(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", TopicConfig{Partitions: 0}); !errors.Is(err, ErrInvalidPartitions) {
		t.Fatalf("want ErrInvalidPartitions, got %v", err)
	}
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	if err := b.CreateTopic("t", TopicConfig{Partitions: 2}); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("want ErrTopicExists, got %v", err)
	}
	if err := b.EnsureTopic("t", TopicConfig{Partitions: 2}); err != nil {
		t.Fatalf("EnsureTopic on existing: %v", err)
	}
	if err := b.EnsureTopic("u", TopicConfig{Partitions: 1}); err != nil {
		t.Fatalf("EnsureTopic new: %v", err)
	}
	n, err := b.Partitions("u")
	if err != nil || n != 1 {
		t.Fatalf("Partitions(u) = %d, %v", n, err)
	}
}

func TestProduceAssignsDenseOffsets(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	for i := 0; i < 100; i++ {
		off, err := b.Produce("t", Message{Partition: 0, Value: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset %d for message %d", off, i)
		}
	}
	hwm, _ := b.HighWatermark(TopicPartition{"t", 0})
	if hwm != 100 {
		t.Fatalf("high watermark = %d, want 100", hwm)
	}
}

func TestFetchReturnsInOrder(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1, SegmentBytes: 256})
	for i := 0; i < 500; i++ {
		if _, err := b.Produce("t", Message{Partition: 0, Value: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	tp := TopicPartition{"t", 0}
	var got []Record
	off := int64(0)
	for off < 500 {
		batch, _, err := b.Fetch(tp, off, 37)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
		off = batch[len(batch)-1].Offset + 1
	}
	if len(got) != 500 {
		t.Fatalf("got %d messages, want 500", len(got))
	}
	for i, m := range got {
		if m.Offset != int64(i) {
			t.Fatalf("message %d has offset %d", i, m.Offset)
		}
		if string(m.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("message %d has value %q", i, m.Value)
		}
	}
}

func TestFetchBlocksUntilAppend(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	tp := TopicPartition{"t", 0}
	msgs, wait, err := b.Fetch(tp, 0, 10)
	if err != nil || len(msgs) != 0 || wait == nil {
		t.Fatalf("empty fetch: msgs=%v wait=%v err=%v", msgs, wait, err)
	}
	done := make(chan struct{})
	go func() {
		<-wait
		close(done)
	}()
	if _, err := b.Produce("t", Message{Partition: 0, Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("wait channel never fired after append")
	}
}

func TestFetchOutOfRange(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	tp := TopicPartition{"t", 0}
	if _, _, err := b.Fetch(tp, 5, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("fetch above hwm: %v", err)
	}
	if _, _, err := b.Fetch(TopicPartition{"t", 9}, 0, 1); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("fetch unknown partition: %v", err)
	}
	if _, _, err := b.Fetch(TopicPartition{"nope", 0}, 0, 1); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("fetch unknown topic: %v", err)
	}
}

func TestRetentionExpiresHead(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1, SegmentBytes: 200, RetentionBytes: 600})
	payload := make([]byte, 50)
	for i := 0; i < 100; i++ {
		if _, err := b.Produce("t", Message{Partition: 0, Value: payload}); err != nil {
			t.Fatal(err)
		}
	}
	tp := TopicPartition{"t", 0}
	start, _ := b.StartOffset(tp)
	if start == 0 {
		t.Fatal("retention never advanced the log start offset")
	}
	if _, _, err := b.Fetch(tp, 0, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("fetch of expired offset: %v", err)
	}
	// All retained records must still be fetchable in order.
	msgs, _, err := b.Fetch(tp, start, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Offset != msgs[i-1].Offset+1 {
			t.Fatal("gap in retained dense log")
		}
	}
}

func TestKeyPartitioningIsStable(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 8})
	seen := map[string]int32{}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("k%d", i%20))
		_, err := b.Produce("t", Message{Partition: -1, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		p := PartitionForKey(key, 8)
		if prev, ok := seen[string(key)]; ok && prev != p {
			t.Fatalf("key %q mapped to partitions %d and %d", key, prev, p)
		}
		seen[string(key)] = p
	}
	// The 20 keys should spread over more than one partition.
	dist := map[int32]bool{}
	for _, p := range seen {
		dist[p] = true
	}
	if len(dist) < 2 {
		t.Fatalf("all keys in one partition: %v", seen)
	}
}

func TestCompactionKeepsLatestPerKey(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "cl", TopicConfig{Partitions: 1, SegmentBytes: 128, Compacted: true})
	// Write 10 versions of 5 keys.
	for v := 0; v < 10; v++ {
		for k := 0; k < 5; k++ {
			_, err := b.Produce("cl", Message{
				Partition: 0,
				Key:       []byte(fmt.Sprintf("k%d", k)),
				Value:     []byte(fmt.Sprintf("v%d", v)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	tp := TopicPartition{"cl", 0}
	start, _ := b.StartOffset(tp)
	var all []Record
	off := start
	hwm, _ := b.HighWatermark(tp)
	for off < hwm {
		batch, wait, err := b.Fetch(tp, off, 100)
		if err != nil {
			t.Fatal(err)
		}
		if wait != nil {
			break
		}
		all = append(all, batch...)
		off = batch[len(batch)-1].Offset + 1
	}
	latest := map[string]string{}
	for _, m := range all {
		latest[string(m.Key)] = string(m.Value)
	}
	if len(latest) != 5 {
		t.Fatalf("compacted log lost keys: %v", latest)
	}
	for k, v := range latest {
		if v != "v9" {
			t.Fatalf("key %s latest value %q, want v9", k, v)
		}
	}
	if len(all) >= 50 {
		t.Fatalf("compaction kept %d records, expected fewer than 50", len(all))
	}
}

func TestCompactionDropsTombstones(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "cl", TopicConfig{Partitions: 1, SegmentBytes: 64, Compacted: true})
	for i := 0; i < 20; i++ {
		if _, err := b.Produce("cl", Message{Partition: 0, Key: []byte("a"), Value: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Produce("cl", Message{Partition: 0, Key: []byte("a"), Value: nil}); err != nil {
		t.Fatal(err)
	}
	// Push the tombstone out of the active segment; the automatic pass in
	// Produce compacts the closed segments.
	for i := 0; i < 20; i++ {
		if _, err := b.Produce("cl", Message{Partition: 0, Key: []byte("b"), Value: []byte("y")}); err != nil {
			t.Fatal(err)
		}
	}
	tp := TopicPartition{"cl", 0}
	start, _ := b.StartOffset(tp)
	hwm, _ := b.HighWatermark(tp)
	foundA := false
	off := start
	for off < hwm {
		batch, wait, err := b.Fetch(tp, off, 100)
		if err != nil {
			t.Fatal(err)
		}
		if wait != nil {
			break
		}
		for _, m := range batch {
			if string(m.Key) == "a" && m.Value != nil {
				foundA = true
			}
		}
		off = batch[len(batch)-1].Offset + 1
	}
	if foundA {
		t.Fatal("tombstoned key survived compaction in closed segments")
	}
}

func TestConsumerResumeFromCommit(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	for i := 0; i < 10; i++ {
		if _, err := b.Produce("t", Message{Partition: 0, Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	tp := TopicPartition{"t", 0}

	c1 := NewConsumer(b, "g")
	if err := c1.Assign(tp); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	msgs, err := c1.Poll(ctx, 4)
	if err != nil || len(msgs) != 4 {
		t.Fatalf("poll: %d msgs, %v", len(msgs), err)
	}
	c1.Commit()

	c2 := NewConsumer(b, "g")
	if err := c2.Assign(tp); err != nil {
		t.Fatal(err)
	}
	msgs, err = c2.Poll(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].Offset != 4 {
		t.Fatalf("resumed at %d, want 4", msgs[0].Offset)
	}
}

func TestConsumerPollBlocksAndWakes(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	c := NewConsumer(b, "")
	for p := int32(0); p < 2; p++ {
		if err := c.Assign(TopicPartition{"t", p}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	got := make(chan []Record, 1)
	go func() {
		msgs, _ := c.Poll(ctx, 10)
		got <- msgs
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := b.Produce("t", Message{Partition: 1, Value: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	select {
	case msgs := <-got:
		if len(msgs) != 1 || string(msgs[0].Value) != "late" {
			t.Fatalf("woke with %v", msgs)
		}
	case <-ctx.Done():
		t.Fatal("poll never woke after append")
	}
}

// TestConsumerPollLeavesNoWaiters: a consumer parks on its persistent
// notifier, so polling past a caught-up partition must not leave a wait
// channel there — only an append to that partition would release it, and a
// partition that stays idle (a bootstrapped relation) would collect one per
// poll for the life of the job. Broker.Fetch keeps its wait-channel contract.
func TestConsumerPollLeavesNoWaiters(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	c := NewConsumer(b, "")
	defer c.Close()
	for p := int32(0); p < 2; p++ {
		if err := c.Assign(TopicPartition{"t", p}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := b.Produce("t", Message{Partition: 0, Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		msgs, err := c.Poll(ctx, 10)
		if err != nil || len(msgs) != 1 {
			t.Fatalf("round %d: poll returned %d messages, %v", i, len(msgs), err)
		}
	}
	idle := TopicPartition{"t", 1}
	p, err := b.partition(idle)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	waiters := len(p.waiters)
	p.mu.Unlock()
	if waiters != 0 {
		t.Fatalf("100 polls left %d wait channels on the idle partition, want 0", waiters)
	}
	if _, wait, err := b.Fetch(idle, 0, 10); err != nil || wait == nil {
		t.Fatalf("Fetch at the high watermark returned wait=%v err=%v, want a wait channel", wait, err)
	}
}

func TestConsumerPollContextCancel(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	c := NewConsumer(b, "")
	if err := c.Assign(TopicPartition{"t", 0}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	msgs, err := c.Poll(ctx, 10)
	if msgs != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled poll returned %v, %v", msgs, err)
	}
}

func TestConsumerRoundRobinFairness(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	for i := 0; i < 50; i++ {
		for p := int32(0); p < 2; p++ {
			if _, err := b.Produce("t", Message{Partition: p, Value: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := NewConsumer(b, "")
	for p := int32(0); p < 2; p++ {
		if err := c.Assign(TopicPartition{"t", p}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	firstPartitions := map[int32]bool{}
	for i := 0; i < 4; i++ {
		msgs, err := c.Poll(ctx, 10)
		if err != nil {
			t.Fatal(err)
		}
		firstPartitions[msgs[0].Partition] = true
	}
	if len(firstPartitions) != 2 {
		t.Fatalf("polling starved a partition; served only %v", firstPartitions)
	}
}

func TestConsumerSeekAndLag(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	for i := 0; i < 10; i++ {
		if _, err := b.Produce("t", Message{Partition: 0, Value: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	tp := TopicPartition{"t", 0}
	c := NewConsumer(b, "")
	if err := c.Assign(tp); err != nil {
		t.Fatal(err)
	}
	lag, err := c.Lag()
	if err != nil || lag != 10 {
		t.Fatalf("lag = %d, %v; want 10", lag, err)
	}
	if _, err := c.Poll(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	lag, _ = c.Lag()
	if lag != 0 {
		t.Fatalf("post-consume lag = %d", lag)
	}
	start, err := b.StartOffset(tp)
	if err != nil {
		t.Fatal(err)
	}
	c.Seek(tp, start)
	lag, _ = c.Lag()
	if lag != 10 {
		t.Fatalf("post-rewind lag = %d, want 10", lag)
	}
}

func TestConcurrentProducersDenseOffsets(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 4, SegmentBytes: 512})
	const producers = 8
	const per = 250
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				key := []byte(fmt.Sprintf("p%d-%d", id, j))
				if _, err := b.Produce("t", Message{Partition: -1, Key: key, Value: key}); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	total := int64(0)
	for p := int32(0); p < 4; p++ {
		tp := TopicPartition{"t", p}
		hwm, _ := b.HighWatermark(tp)
		total += hwm
		// Dense, in-order offsets within each partition.
		off := int64(0)
		for off < hwm {
			batch, _, err := b.Fetch(tp, off, 97)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range batch {
				if m.Offset != off {
					t.Fatalf("partition %d: offset %d where %d expected", p, m.Offset, off)
				}
				off++
			}
		}
	}
	if total != producers*per {
		t.Fatalf("total records %d, want %d", total, producers*per)
	}
}

// TestConsumerReadsWhileProducing polls a partition while another goroutine
// appends to it with small segments, so reads of arena views race with
// appends into the same arena and with segment rolls (run under -race):
// every record must arrive once, in order, with its own bytes.
func TestConsumerReadsWhileProducing(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1, SegmentBytes: 512})
	const n = 5000
	produced := make(chan error, 1)
	go func() {
		for i := 0; i < n; i += 10 {
			batch := make([]Message, 10)
			for j := range batch {
				batch[j] = Message{Partition: 0, Key: []byte(fmt.Sprint(i + j)), Value: []byte(fmt.Sprintf("v%d", i+j))}
			}
			if err := b.ProduceBatch("t", batch); err != nil {
				produced <- err
				return
			}
		}
		produced <- nil
	}()
	c := NewConsumer(b, "")
	defer c.Close()
	if err := c.Assign(TopicPartition{"t", 0}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for next := 0; next < n; {
		msgs, err := c.Poll(ctx, 64)
		if err != nil {
			t.Fatalf("poll after %d records: %v", next, err)
		}
		for _, m := range msgs {
			if m.Offset != int64(next) || string(m.Key) != fmt.Sprint(next) || string(m.Value) != fmt.Sprintf("v%d", next) {
				t.Fatalf("record %d arrived as offset %d key %q value %q", next, m.Offset, m.Key, m.Value)
			}
			next++
		}
	}
	if err := <-produced; err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTopic(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	if err := b.DeleteTopic("t"); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteTopic("t"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := b.Produce("t", Message{Partition: 0}); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("produce to deleted topic: %v", err)
	}
}
