package kafka

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"samzasql/internal/trace"
)

// sparseSegment builds a compaction survivor: n framed records whose offsets
// start at base+gap and advance by gap, so every offset that is not a
// multiple of gap past base falls in a hole. Each record's key names its
// offset.
func sparseSegment(base int64, n int, gap int64) *segment {
	s := &segment{baseOffset: base, offsets: make([]int64, 0, n), clean: true}
	for i := 0; i < n; i++ {
		off := base + int64(i+1)*gap
		s.encode(&Message{Key: []byte{byte(off)}, Value: []byte("v")})
		s.offsets = append(s.offsets, off)
	}
	s.upperOffset = base + int64(n+1)*gap
	return s
}

func TestSegmentFetchSparse(t *testing.T) {
	s := sparseSegment(100, 5, 10) // offsets 110, 120, 130, 140, 150
	cases := []struct {
		name      string
		from      int64
		max       int
		wantFirst int64
		wantLen   int
	}{
		{"below base", 50, 10, 110, 5},
		{"at base", 100, 10, 110, 5},
		{"inside a gap", 121, 10, 130, 3},
		{"on a record", 130, 10, 130, 3},
		{"at the last record", 150, 10, 150, 1},
		{"past the end", 151, 10, 0, 0},
		{"max caps the batch", 105, 2, 110, 2},
		{"max zero", 110, 0, 0, 0},
	}
	for _, c := range cases {
		got := s.read(nil, c.from, c.max, "t", 0)
		if len(got) != c.wantLen {
			t.Errorf("%s: read(%d, %d) returned %d records, want %d", c.name, c.from, c.max, len(got), c.wantLen)
			continue
		}
		if c.wantLen > 0 && got[0].Offset != c.wantFirst {
			t.Errorf("%s: read(%d, %d) starts at offset %d, want %d", c.name, c.from, c.max, got[0].Offset, c.wantFirst)
		}
		for i := range got {
			if i > 0 && got[i].Offset != got[i-1].Offset+10 {
				t.Errorf("%s: records not consecutive survivors: %d after %d", c.name, got[i].Offset, got[i-1].Offset)
			}
			if got[i].Key[0] != byte(got[i].Offset) || string(got[i].Value) != "v" {
				t.Errorf("%s: record at offset %d decodes as key %v value %q", c.name, got[i].Offset, got[i].Key, got[i].Value)
			}
		}
	}
}

// TestFetchCompactedPartitionWalk replays a compacted partition the way a
// changelog restore does — fetch, advance past the last record returned —
// and requires every survivor exactly once, in offset order.
func TestFetchCompactedPartitionWalk(t *testing.T) {
	p := newPartition("t", 0, TopicConfig{Compacted: true})
	survivor := sparseSegment(0, 1000, 3)
	active := newSegment(survivor.upperOffset)
	p.segments = []*segment{survivor, active}
	p.append(Message{Key: []byte("tail")})

	var seen []int64
	hwm := p.highWatermark()
	for off := int64(0); off < hwm; {
		msgs, wait, err := p.fetch(off, 64)
		if err != nil {
			t.Fatal(err)
		}
		if wait != nil {
			break
		}
		for _, m := range msgs {
			seen = append(seen, m.Offset)
		}
		off = msgs[len(msgs)-1].Offset + 1
	}
	if len(seen) != 1001 {
		t.Fatalf("walk saw %d records, want 1001", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("offsets out of order: %d after %d", seen[i], seen[i-1])
		}
	}
}

// FuzzSegmentRecord frames an arbitrary record between two neighbours in a
// partition whose segments roll every few records and requires all three to
// read back field for field — topic, partition and offset from the log, nil
// and empty keys and values told apart, the append flag, any timestamp, any
// trace context — with the retention size the message itself reports. The
// same records in a compacted partition, one segment each, must read back
// after compaction as the model's survivors, at their own offsets.
func FuzzSegmentRecord(f *testing.F) {
	f.Add([]byte("k"), []byte("v"), int64(1_700_000_000_000), uint64(0), uint64(0), uint64(0), int64(0), false, false, false, false)
	f.Add([]byte{}, []byte{}, int64(0), uint64(0), uint64(0), uint64(0), int64(0), false, false, false, true)
	f.Add([]byte(nil), []byte(nil), int64(-1), uint64(0), uint64(0), uint64(0), int64(0), true, true, false, false)
	f.Add(bytes.Repeat([]byte("x"), 200), []byte("tombstone next"), int64(math.MinInt64), uint64(1), uint64(2), uint64(3), int64(-5), false, false, true, true)
	f.Add([]byte("k"), bytes.Repeat([]byte{0x80}, 300), int64(math.MaxInt64), uint64(math.MaxUint64), uint64(7), uint64(0), int64(math.MaxInt64), false, true, false, false)
	f.Add([]byte("before"), []byte("override"), int64(2), uint64(0), uint64(0), uint64(0), int64(0), false, false, false, false)
	f.Fuzz(func(t *testing.T, key, value []byte, ts int64, traceID, spanID, parentID uint64, startNs int64, keyNil, valueNil, sampled, app bool) {
		rec := Message{Key: key, Value: value, Append: app, Timestamp: ts, Trace: trace.Context{
			TraceID: traceID, SpanID: spanID, ParentID: parentID, Sampled: sampled, StartNs: startNs,
		}}
		if keyNil {
			rec.Key = nil
		} else if rec.Key == nil {
			rec.Key = []byte{}
		}
		if valueNil {
			rec.Value = nil
		} else if rec.Value == nil {
			rec.Value = []byte{}
		}
		msgs := []Message{
			{Key: []byte("before"), Value: []byte{}, Timestamp: -1},
			rec,
			{Value: []byte("after"), Append: !app, Timestamp: 1},
		}
		for _, cfg := range []TopicConfig{{SegmentBytes: 64}, {SegmentBytes: 1, Compacted: true}} {
			p := newPartition("f", 3, cfg)
			m := newLogModel("f", 3, cfg)
			for i := range msgs {
				p.append(msgs[i])
				m.append(msgs[i])
			}
			p.compact()
			m.compact()
			got, err := p.read(nil, 0, len(msgs))
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fmt.Sprintf("read back (compacted=%v)", cfg.Compacted), got, m.recs)
			if cfg.Compacted {
				continue
			}
			size := 0
			for _, s := range p.segments {
				size += s.sizeBytes
			}
			if want := msgs[0].Size() + rec.Size() + msgs[2].Size(); size != want {
				t.Fatalf("segments account %d bytes, the messages %d", size, want)
			}
		}
	})
}

// BenchmarkFetchCompacted walks a compacted segment of one million surviving
// records in 512-record reads, the access pattern of a changelog restore.
// With a head scan per read the walk visits ~N²/1024 records; with the
// binary search it is linear in N.
func BenchmarkFetchCompacted(b *testing.B) {
	const n = 1_000_000
	s := sparseSegment(0, n, 2)
	var buf []Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := 0
		for off := int64(0); ; {
			buf = s.read(buf[:0], off, 512, "t", 0)
			if len(buf) == 0 {
				break
			}
			records += len(buf)
			off = buf[len(buf)-1].Offset + 1
		}
		if records != n {
			b.Fatalf("walk saw %d records, want %d", records, n)
		}
	}
}
