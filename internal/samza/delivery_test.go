package samza

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// collectingTask keeps a copy of every envelope it is handed. The slice a
// block arrives in is the consumer's buffer, reused by the next poll, so the
// task copies the records out; Key and Value are views into the log and stay
// valid.
type collectingTask struct {
	mu   sync.Mutex
	got  []IncomingMessageEnvelope
	want int
	full chan struct{}
}

func (t *collectingTask) Init(*TaskContext) error { return nil }

func (t *collectingTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.got = append(t.got, envs...)
	if len(t.got) >= t.want && t.full != nil {
		close(t.full)
		t.full = nil
	}
	return nil
}

// sameEnvelope compares every field, telling nil from empty keys and values.
func sameEnvelope(a, b *IncomingMessageEnvelope) bool {
	return a.Stream == b.Stream && a.Partition == b.Partition && a.Offset == b.Offset && a.Append == b.Append &&
		(a.Key == nil) == (b.Key == nil) && bytes.Equal(a.Key, b.Key) &&
		(a.Value == nil) == (b.Value == nil) && bytes.Equal(a.Value, b.Value) &&
		a.Timestamp == b.Timestamp
}

// TestProcessBatchReceivesProducedRecords pins the read contract end to end:
// a running container hands its task exactly the records produced — stream,
// partition, offset, key, value and timestamp — in offset order, in blocks
// no larger than the batch size.
func TestProcessBatchReceivesProducedRecords(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	msgs := []kafka.Message{
		{Key: []byte("a"), Value: []byte("one"), Timestamp: 1_700_000_000_000},
		{Key: nil, Value: []byte("keyless"), Timestamp: -5},
		{Key: []byte("b"), Value: []byte{}, Timestamp: 0},
		{Key: []byte("c"), Value: []byte("third"), Timestamp: 7},
		{Key: []byte("d"), Value: bytes.Repeat([]byte{0x80}, 300), Timestamp: 8},
	}
	for i := 0; i < 6; i++ {
		msgs = append(msgs, kafka.Message{Key: []byte(fmt.Sprint("k", i)), Value: []byte(fmt.Sprint("v", i)), Timestamp: int64(100 + i)})
	}
	var want []IncomingMessageEnvelope
	for _, m := range msgs {
		m.Partition = 1
		off, err := b.Produce("in", m)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, IncomingMessageEnvelope{
			Stream: "in", Partition: 1, Offset: off,
			Key: m.Key, Value: m.Value, Timestamp: m.Timestamp,
		})
	}
	task := &collectingTask{want: len(want), full: make(chan struct{})}
	full := task.full
	job := &JobSpec{
		Name:        "delivery",
		Inputs:      []StreamSpec{{Topic: "in"}},
		BatchSize:   4,
		TaskFactory: func() StreamTask { return task },
	}
	cpm, err := NewCheckpointManager(b, job)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := newContainer(0, job, b, cpm, []int32{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cont.Run(ctx) }()
	select {
	case <-full:
	case <-time.After(10 * time.Second):
		t.Fatal("the task did not receive every produced record")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	task.mu.Lock()
	defer task.mu.Unlock()
	if len(task.got) != len(want) {
		t.Fatalf("task received %d records, %d were produced", len(task.got), len(want))
	}
	for i := range want {
		if !sameEnvelope(&task.got[i], &want[i]) {
			t.Fatalf("record %d\n got  %+v\n want %+v", i, task.got[i], want[i])
		}
	}
}

// TestBootstrapDeliversTombstones bootstraps a compacted relation topic —
// a compaction survivor with offset gaps, then tombstones and a put in the
// segments after it — and requires the task to receive exactly the
// retained records in offset order, tombstones as nil values.
func TestBootstrapDeliversTombstones(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.CreateTopic("rel", kafka.TopicConfig{Partitions: 1, Compacted: true, SegmentBytes: 64}); err != nil {
		t.Fatal(err)
	}
	produce := func(key string, value []byte) {
		t.Helper()
		if _, err := b.Produce("rel", kafka.Message{Partition: 0, Key: []byte(key), Value: value, Timestamp: 3}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		produce(fmt.Sprint("k", i%4), []byte(fmt.Sprint("v", i)))
	}
	produce("k1", nil)
	produce("k2", nil)
	produce("k9", []byte("sampled"))
	produce("k3", nil)

	want := drainTopic(t, b, "rel")
	tombstones, gaps := 0, 0
	for i := range want {
		if want[i].Value == nil {
			tombstones++
		}
		if i > 0 && want[i].Offset > want[i-1].Offset+1 {
			gaps++
		}
	}
	if tombstones < 2 || gaps == 0 {
		t.Fatalf("the topic holds %d tombstones and %d offset gaps; the test needs a compacted log with tombstones", tombstones, gaps)
	}

	task := &collectingTask{}
	job := &JobSpec{
		Name:        "bootstrap-tombstones",
		Inputs:      []StreamSpec{{Topic: "rel", Bootstrap: true}},
		BatchSize:   3,
		TaskFactory: func() StreamTask { return task },
	}
	cpm, err := NewCheckpointManager(b, job)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := newContainer(0, job, b, cpm, []int32{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ti := cont.tasks[0]
	if err := ti.consumer.Assign(kafka.TopicPartition{Topic: "rel", Partition: 0}); err != nil {
		t.Fatal(err)
	}
	defer ti.consumer.Close()
	if err := cont.bootstrap(context.Background(), ti); err != nil {
		t.Fatal(err)
	}
	if len(task.got) != len(want) {
		t.Fatalf("bootstrap delivered %d records, the topic retains %d", len(task.got), len(want))
	}
	for i := range want {
		if !sameEnvelope(&task.got[i], &want[i]) {
			t.Fatalf("record %d\n got  %+v\n want %+v", i, task.got[i], want[i])
		}
	}
}
