package kafka

import "testing"

// sparseSegment builds a compaction survivor: n records whose offsets start
// at base+gap and advance by gap, so every offset that is not a multiple of
// gap past base falls in a hole.
func sparseSegment(base int64, n int, gap int64) *segment {
	s := &segment{baseOffset: base, records: make([]Message, n), clean: true}
	for i := range s.records {
		s.records[i] = Message{Offset: base + int64(i+1)*gap}
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
		got := s.fetch(c.from, c.max)
		if len(got) != c.wantLen {
			t.Errorf("%s: fetch(%d, %d) returned %d records, want %d", c.name, c.from, c.max, len(got), c.wantLen)
			continue
		}
		if c.wantLen > 0 && got[0].Offset != c.wantFirst {
			t.Errorf("%s: fetch(%d, %d) starts at offset %d, want %d", c.name, c.from, c.max, got[0].Offset, c.wantFirst)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Offset != got[i-1].Offset+10 {
				t.Errorf("%s: records not consecutive survivors: %d after %d", c.name, got[i].Offset, got[i-1].Offset)
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

// BenchmarkFetchCompacted walks a compacted segment of one million surviving
// records in 512-record fetches, the access pattern of a changelog restore.
// With a head scan per fetch the walk visits ~N²/1024 records; with the
// binary search it is linear in N.
func BenchmarkFetchCompacted(b *testing.B) {
	const n = 1_000_000
	s := sparseSegment(0, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := 0
		for off := int64(0); ; {
			got := s.fetch(off, 512)
			if len(got) == 0 {
				break
			}
			records += len(got)
			off = got[len(got)-1].Offset + 1
		}
		if records != n {
			b.Fatalf("walk saw %d records, want %d", records, n)
		}
	}
}
