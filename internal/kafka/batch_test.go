package kafka

import (
	"errors"
	"fmt"
	"testing"
)

func TestProduceBatchAssignsContiguousOffsets(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	msgs := make([]Message, 10)
	for i := range msgs {
		msgs[i] = Message{Partition: 1, Key: []byte("k"), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	if err := b.ProduceBatch("t", msgs); err != nil {
		t.Fatal(err)
	}
	got, _, err := b.Fetch(TopicPartition{Topic: "t", Partition: 1}, 0, 100)
	if err != nil || len(got) != 10 {
		t.Fatalf("fetch after batch: %d msgs, %v", len(got), err)
	}
	for i, m := range got {
		if m.Offset != int64(i) || m.Partition != 1 || m.Stream != "t" || string(m.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("msg %d read back as %s-%d@%d value %q", i, m.Stream, m.Partition, m.Offset, m.Value)
		}
	}
}

func TestProduceBatchHashPartitioning(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 8})
	msgs := []Message{
		{Partition: -1, Key: []byte("key-a"), Value: []byte("1")},
		{Partition: -1, Key: []byte("key-a"), Value: []byte("2")},
		{Partition: -1, Key: []byte("key-b"), Value: []byte("3")},
	}
	if err := b.ProduceBatch("t", msgs); err != nil {
		t.Fatal(err)
	}
	wantA := PartitionForKey([]byte("key-a"), 8)
	wantB := PartitionForKey([]byte("key-b"), 8)
	if msgs[0].Partition != wantA || msgs[1].Partition != wantA || msgs[2].Partition != wantB {
		t.Fatalf("partitions %d %d %d, want %d %d %d",
			msgs[0].Partition, msgs[1].Partition, msgs[2].Partition, wantA, wantA, wantB)
	}
	got, _, err := b.Fetch(TopicPartition{Topic: "t", Partition: wantA}, 0, 10)
	if err != nil || len(got) < 2 || got[0].Offset != 0 || got[1].Offset != 1 || string(got[1].Value) != "2" {
		t.Fatalf("same-key records on partition %d: %+v, %v", wantA, got, err)
	}
}

func TestProduceBatchErrors(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	if err := b.ProduceBatch("missing", []Message{{Partition: 0}}); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("missing topic: %v", err)
	}
	if err := b.ProduceBatch("t", []Message{{Partition: 7}}); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("bad partition: %v", err)
	}
	if err := b.ProduceBatch("t", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	// A bad partition late in a batch fails it before anything is appended.
	if err := b.ProduceBatch("t", []Message{{Partition: 0}, {Partition: 1}, {Partition: 7}}); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("batch with a bad partition: %v", err)
	}
	for p := int32(0); p < 2; p++ {
		if hwm, _ := b.HighWatermark(TopicPartition{Topic: "t", Partition: p}); hwm != 0 {
			t.Fatalf("failed batch appended %d records to partition %d", hwm, p)
		}
	}
}

// TestProduceBatchCoalescedWakeup verifies a batch signals each partition's
// persistent subscriber once (coalesced), not once per record nor once per
// run of records — the synchronization saving the changelog flush path
// depends on, and what keeps a producer spreading a batch over partitions
// from waking each consumer for every one or two records — and that each
// partition keeps its records in batch order.
func TestProduceBatchCoalescedWakeup(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	var subs [2]chan struct{}
	for p := range subs {
		subs[p] = make(chan struct{}, 64)
		if err := b.Subscribe(TopicPartition{Topic: "t", Partition: int32(p)}, subs[p]); err != nil {
			t.Fatal(err)
		}
	}
	msgs := make([]Message, 64)
	for i := range msgs {
		msgs[i] = Message{Partition: int32(i % 2), Value: []byte(fmt.Sprint(i))}
	}
	if err := b.ProduceBatch("t", msgs); err != nil {
		t.Fatal(err)
	}
	for p, ch := range subs {
		if n := len(ch); n != 1 {
			t.Fatalf("batch produced %d signals on partition %d, want 1", n, p)
		}
		got, _, err := b.Fetch(TopicPartition{Topic: "t", Partition: int32(p)}, 0, 64)
		if err != nil || len(got) != 32 {
			t.Fatalf("partition %d: fetched %d records, %v", p, len(got), err)
		}
		for i, m := range got {
			if want := fmt.Sprint(2*i + p); string(m.Value) != want || m.Offset != int64(i) {
				t.Fatalf("partition %d record %d is %q@%d, want %q@%d", p, i, m.Value, m.Offset, want, i)
			}
		}
	}
}

// TestProduceBatchSegmentRollAndCompaction drives a batch large enough to
// roll segments on a compacted topic and checks the latest value per key
// survives a forced compaction pass.
func TestProduceBatchSegmentRollAndCompaction(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "cl", TopicConfig{Partitions: 1, Compacted: true, SegmentBytes: 512})
	const rounds, keys = 40, 5
	for r := 0; r < rounds; r++ {
		msgs := make([]Message, keys)
		for k := 0; k < keys; k++ {
			msgs[k] = Message{
				Partition: 0,
				Key:       []byte(fmt.Sprintf("k%d", k)),
				Value:     []byte(fmt.Sprintf("r%03dk%d-padding-padding-padding", r, k)),
			}
		}
		if err := b.ProduceBatch("cl", msgs); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Compact("cl"); err != nil {
		t.Fatal(err)
	}
	tp := TopicPartition{Topic: "cl", Partition: 0}
	start, _ := b.StartOffset(tp)
	hwm, _ := b.HighWatermark(tp)
	if hwm != rounds*keys {
		t.Fatalf("hwm %d, want %d", hwm, rounds*keys)
	}
	latest := map[string]string{}
	for off := start; off < hwm; {
		msgs, wait, err := b.Fetch(tp, off, 64)
		if err != nil {
			t.Fatal(err)
		}
		if wait != nil {
			break
		}
		for _, m := range msgs {
			latest[string(m.Key)] = string(m.Value)
		}
		off = msgs[len(msgs)-1].Offset + 1
	}
	for k := 0; k < keys; k++ {
		want := fmt.Sprintf("r%03dk%d-padding-padding-padding", rounds-1, k)
		if got := latest[fmt.Sprintf("k%d", k)]; got != want {
			t.Fatalf("k%d latest %q, want %q", k, got, want)
		}
	}
}
