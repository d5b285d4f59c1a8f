package kafka

import (
	"errors"
	"testing"
)

func TestProducerSendPartitionsByKey(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 8})
	send := func(value string, ts int64) (int64, error) {
		return b.Produce("t", Message{Partition: -1, Key: []byte("key-a"), Value: []byte(value), Timestamp: ts})
	}
	off, err := send("v1", 100)
	if err != nil || off != 0 {
		t.Fatalf("Produce: %d %v", off, err)
	}
	// Same key lands in the same partition with increasing offsets.
	off2, err := send("v2", 200)
	if err != nil || off2 != 1 {
		t.Fatalf("second Produce: %d %v", off2, err)
	}
	want := PartitionForKey([]byte("key-a"), 8)
	tp := TopicPartition{Topic: "t", Partition: want}
	msgs, _, err := b.Fetch(tp, 0, 10)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("fetch from keyed partition: %d msgs, %v", len(msgs), err)
	}
	if msgs[0].Timestamp != 100 || msgs[1].Timestamp != 200 {
		t.Fatalf("timestamps %d %d", msgs[0].Timestamp, msgs[1].Timestamp)
	}
}

func TestProducerSendTo(t *testing.T) {
	b := NewBroker()
	mustCreate(t, b, "t", TopicConfig{Partitions: 4})
	if _, err := b.Produce("t", Message{Partition: 3, Key: []byte("k"), Value: []byte("v"), Timestamp: 1}); err != nil {
		t.Fatal(err)
	}
	hwm, _ := b.HighWatermark(TopicPartition{Topic: "t", Partition: 3})
	if hwm != 1 {
		t.Fatalf("explicit partition ignored: hwm %d", hwm)
	}
	if _, err := b.Produce("t", Message{Partition: 9}); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("out-of-range partition: %v", err)
	}
}

func TestProducerUnknownTopic(t *testing.T) {
	b := NewBroker()
	if _, err := b.Produce("missing", Message{Partition: -1, Value: []byte("v")}); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("produce to missing topic: %v", err)
	}
}
