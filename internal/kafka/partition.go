package kafka

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrOffsetOutOfRange is returned by fetches below the log start offset
// (records expired by retention) or above the high watermark.
var ErrOffsetOutOfRange = errors.New("kafka: offset out of range")

// partition is a time-ordered, immutable, append-only sequence of messages.
// Ordering is guaranteed within the partition and nowhere else, matching the
// paper's data model (§3.1).
type partition struct {
	mu       sync.RWMutex
	topic    string
	id       int32
	segments []*segment // non-empty; last is the active segment

	// hwm mirrors the active segment's next offset, stored under mu by every
	// append. highWatermark reads it without the lock: lag gauges and
	// output watchers poll it, and a reader queued behind mu would wait out
	// an appender that was descheduled while holding it — tens of
	// milliseconds whenever busy tasks outnumber the processors.
	hwm atomic.Int64

	// logStartOffset is the oldest retained offset; it advances when
	// retention drops head segments.
	logStartOffset int64

	// waiters are channels closed on the next append, enabling blocking
	// fetches without polling.
	waiters []chan struct{}

	// subs are persistent subscriber channels signalled (coalesced,
	// non-blocking) on every append. Consumers register one channel for
	// their whole assignment so idle polls park instead of respawning
	// wait goroutines.
	subs []chan struct{}

	maxSegmentBytes int
	retentionBytes  int // <= 0 means unbounded
	compacted       bool
}

func newPartition(topic string, id int32, cfg TopicConfig) *partition {
	p := &partition{
		topic:           topic,
		id:              id,
		maxSegmentBytes: cfg.SegmentBytes,
		retentionBytes:  cfg.RetentionBytes,
		compacted:       cfg.Compacted,
	}
	if p.maxSegmentBytes <= 0 {
		p.maxSegmentBytes = defaultSegmentBytes
	}
	p.segments = []*segment{newSegment(0)}
	return p
}

const defaultSegmentBytes = 1 << 20

// append assigns the next offset to m, stores it, wakes blocked fetchers and
// applies retention. It returns the assigned offset.
func (p *partition) append(m Message) int64 {
	p.mu.Lock()
	active := p.segments[len(p.segments)-1]
	if active.sizeBytes >= p.maxSegmentBytes {
		active = newSegmentLike(active)
		p.segments = append(p.segments, active)
	}
	m.Topic = p.topic
	m.Partition = p.id
	m.Offset = active.nextOffset()
	active.append(m)
	offset := m.Offset
	p.hwm.Store(offset + 1)

	waiters := p.waiters
	p.waiters = nil
	subs := p.subs
	p.applyRetentionLocked()
	p.mu.Unlock()

	for _, w := range waiters {
		close(w)
	}
	// Signal persistent subscribers without blocking: a full buffer means a
	// wakeup is already pending, which is all the subscriber needs.
	for _, s := range subs {
		select {
		case s <- struct{}{}:
		default:
		}
	}
	return offset
}

// appendBatch assigns consecutive offsets to msgs (mutating their
// Topic/Partition/Offset fields in place), stores them, wakes blocked
// fetchers and applies retention — all under one lock acquisition with one
// coalesced subscriber signal, so an N-record changelog flush costs the same
// synchronization as a single append.
func (p *partition) appendBatch(msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	p.mu.Lock()
	for i := range msgs {
		active := p.segments[len(p.segments)-1]
		if active.sizeBytes >= p.maxSegmentBytes {
			active = newSegmentLike(active)
			p.segments = append(p.segments, active)
		}
		msgs[i].Topic = p.topic
		msgs[i].Partition = p.id
		msgs[i].Offset = active.nextOffset()
		active.append(msgs[i])
	}
	p.hwm.Store(msgs[len(msgs)-1].Offset + 1)
	waiters := p.waiters
	p.waiters = nil
	subs := p.subs
	p.applyRetentionLocked()
	p.mu.Unlock()

	for _, w := range waiters {
		close(w)
	}
	for _, s := range subs {
		select {
		case s <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a persistent notification channel signalled on every
// append. The channel should be buffered; signals are coalesced. The subs
// slice is copy-on-write because append() signals a snapshot of it outside
// the partition lock.
func (p *partition) subscribe(ch chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.subs {
		if s == ch {
			return
		}
	}
	next := make([]chan struct{}, 0, len(p.subs)+1)
	next = append(next, p.subs...)
	p.subs = append(next, ch)
}

// unsubscribe removes a channel registered with subscribe.
func (p *partition) unsubscribe(ch chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range p.subs {
		if s == ch {
			next := make([]chan struct{}, 0, len(p.subs)-1)
			next = append(next, p.subs[:i]...)
			p.subs = append(next, p.subs[i+1:]...)
			return
		}
	}
}

// applyRetentionLocked drops head segments while total size exceeds the
// retention bound, never dropping the active segment. Compacted partitions
// are cleaned by compact() instead.
func (p *partition) applyRetentionLocked() {
	if p.retentionBytes <= 0 || p.compacted {
		return
	}
	total := 0
	for _, s := range p.segments {
		total += s.sizeBytes
	}
	for total > p.retentionBytes && len(p.segments) > 1 {
		head := p.segments[0]
		total -= head.sizeBytes
		p.logStartOffset = head.nextOffset()
		p.segments = p.segments[1:]
	}
}

// highWatermark is the offset that will be assigned to the next record.
func (p *partition) highWatermark() int64 { return p.hwm.Load() }

// startOffset returns the oldest retained offset.
func (p *partition) startOffset() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.logStartOffset
}

// fetch returns up to max messages with offsets >= offset. If no records at
// or above offset exist yet (offset >= high watermark is allowed up to
// exactly the watermark), it returns an empty slice plus a wait channel that
// is closed on the next append. Fetching below the log start offset returns
// ErrOffsetOutOfRange.
func (p *partition) fetch(offset int64, max int) ([]Message, <-chan struct{}, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	if offset < p.logStartOffset {
		return nil, nil, fmt.Errorf("%w: fetch %s-%d@%d below log start %d",
			ErrOffsetOutOfRange, p.topic, p.id, offset, p.logStartOffset)
	}
	hwm := p.segments[len(p.segments)-1].nextOffset()
	if offset > hwm {
		return nil, nil, fmt.Errorf("%w: fetch %s-%d@%d above high watermark %d",
			ErrOffsetOutOfRange, p.topic, p.id, offset, hwm)
	}
	if offset == hwm {
		w := make(chan struct{})
		p.waiters = append(p.waiters, w)
		return nil, w, nil
	}

	var out []Message
	for _, s := range p.segments {
		if s.nextOffset() <= offset {
			continue
		}
		got := s.fetch(offset, max-len(out))
		out = append(out, got...)
		if len(out) >= max {
			break
		}
		offset = s.nextOffset()
	}
	if len(out) == 0 {
		// Every record in range was removed by compaction; the caller
		// should retry from the high watermark.
		w := make(chan struct{})
		p.waiters = append(p.waiters, w)
		return nil, w, nil
	}
	return out, nil, nil
}

// compact rewrites the closed segments of a compacted partition, retaining
// only the latest record per key and dropping nil-value tombstones whose key
// has no later record. Offsets are preserved (leaving gaps), exactly as
// Kafka log compaction does. The active segment is never compacted so
// concurrent tailing consumers see a stable head.
func (p *partition) compact() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.compacted || len(p.segments) < 2 {
		return
	}
	closed := p.segments[:len(p.segments)-1]
	active := p.segments[len(p.segments)-1]

	// The survivor of the previous compaction leads the segment chain and is
	// clean: unique keys, no tombstones. Its records only drop when a newer
	// dirty record overrides them, so it contributes membership lookups below
	// but never map inserts — compaction cost tracks new data, not live size.
	dirty := p.segments
	var clean *segment
	if closed[0].clean {
		clean = closed[0]
		dirty = p.segments[1:]
	}

	// Latest offset per key across the dirty segments, including the active
	// one, so records superseded by active-segment writes drop. Sized up
	// front: growing the map incrementally would rehash every doubling.
	n := 0
	for _, s := range dirty {
		n += len(s.records)
	}
	latest := make(map[string]int64, n)
	for _, s := range dirty {
		for _, m := range s.records {
			latest[string(m.Key)] = m.Offset
		}
	}

	capHint := 0
	for _, s := range closed {
		capHint += len(s.records)
	}
	merged := &segment{
		baseOffset:  closed[0].baseOffset,
		upperOffset: active.baseOffset,
		records:     make([]Message, 0, capHint),
		dense:       false,
		clean:       true,
	}
	if clean != nil {
		for _, m := range clean.records {
			if _, overridden := latest[string(m.Key)]; overridden {
				continue
			}
			merged.records = append(merged.records, m)
			merged.sizeBytes += m.Size()
		}
	}
	for _, s := range closed {
		if s == clean {
			continue
		}
		for _, m := range s.records {
			if latest[string(m.Key)] != m.Offset {
				continue
			}
			if m.Value == nil {
				continue // tombstone with no later write: drop
			}
			merged.records = append(merged.records, m)
			merged.sizeBytes += m.Size()
		}
	}
	p.segments = []*segment{merged, active}
}

// closedSegmentCount reports how many non-active segments the partition
// holds; the broker uses it to decide when compaction is worthwhile.
func (p *partition) closedSegmentCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.segments) - 1
}
