package kafka

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

// Property: for any sequence of produced values, fetching from offset 0 in
// any batch-size pattern returns exactly the produced sequence (per
// partition total order, no loss, no duplication).
func TestPropertyLogPreservesSequence(t *testing.T) {
	f := func(values [][]byte, batchHint uint8) bool {
		if len(values) == 0 {
			return true
		}
		b := NewBroker()
		if err := b.CreateTopic("t", TopicConfig{Partitions: 1, SegmentBytes: 128}); err != nil {
			return false
		}
		for _, v := range values {
			if _, err := b.Produce("t", Message{Partition: 0, Value: v}); err != nil {
				return false
			}
		}
		batch := int(batchHint%16) + 1
		tp := TopicPartition{"t", 0}
		var got [][]byte
		off := int64(0)
		for off < int64(len(values)) {
			msgs, wait, err := b.Fetch(tp, off, batch)
			if err != nil || wait != nil {
				return false
			}
			for _, m := range msgs {
				got = append(got, m.Value)
			}
			off = msgs[len(msgs)-1].Offset + 1
		}
		if len(got) != len(values) {
			return false
		}
		for i := range values {
			if string(got[i]) != string(values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: compaction of a compacted topic preserves the latest value of
// every live key regardless of the write pattern.
func TestPropertyCompactionPreservesLatest(t *testing.T) {
	f := func(writes []uint8) bool {
		b := NewBroker()
		if err := b.CreateTopic("cl", TopicConfig{Partitions: 1, SegmentBytes: 64, Compacted: true}); err != nil {
			return false
		}
		want := map[string]string{}
		for i, w := range writes {
			key := fmt.Sprintf("k%d", w%7)
			val := fmt.Sprintf("v%d", i)
			want[key] = val
			if _, err := b.Produce("cl", Message{Partition: 0, Key: []byte(key), Value: []byte(val)}); err != nil {
				return false
			}
		}
		if err := b.Compact("cl"); err != nil {
			return false
		}
		tp := TopicPartition{"cl", 0}
		start, _ := b.StartOffset(tp)
		hwm, _ := b.HighWatermark(tp)
		got := map[string]string{}
		off := start
		for off < hwm {
			msgs, wait, err := b.Fetch(tp, off, 64)
			if err != nil {
				return false
			}
			if wait != nil {
				break
			}
			for _, m := range msgs {
				got[string(m.Key)] = string(m.Value)
			}
			off = msgs[len(msgs)-1].Offset + 1
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the default partitioner is deterministic and in range.
func TestPropertyPartitionerDeterministicInRange(t *testing.T) {
	f := func(key []byte, nRaw uint8) bool {
		n := int32(nRaw%32) + 1
		p1 := PartitionForKey(key, n)
		p2 := PartitionForKey(key, n)
		return p1 == p2 && p1 >= 0 && p1 < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the inline FNV-1a partitioner picks the partition hash/fnv's
// 32-bit FNV-1a gives, so re-keyed messages land where they always have; a
// nil or empty key, or a topic of one partition, maps to partition 0.
func TestPropertyPartitionerMatchesFNV1a(t *testing.T) {
	f := func(key []byte, nRaw uint8) bool {
		n := int32(nRaw%64) + 2
		h := fnv.New32a()
		h.Write(key)
		want := int32(h.Sum32() % uint32(n))
		if len(key) == 0 {
			want = 0
		}
		return PartitionForKey(key, n) == want && PartitionForKey(key, 1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, key := range [][]byte{nil, {}} {
		for _, n := range []int32{0, 1, 7, 64} {
			if p := PartitionForKey(key, n); p != 0 {
				t.Fatalf("key %#v over %d partitions: partition %d, want 0", key, n, p)
			}
		}
	}
	// A published FNV-1a test vector: "a" hashes to 0xe40c292c.
	if p := PartitionForKey([]byte("a"), math.MaxInt32); p != 0xe40c292c%math.MaxInt32 {
		t.Fatalf(`key "a": partition %d, want %d`, p, 0xe40c292c%math.MaxInt32)
	}
}
