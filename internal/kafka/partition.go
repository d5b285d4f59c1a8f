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

// append assigns the next offset to m, copies it into the log, wakes blocked
// fetchers and applies retention. It returns the assigned offset.
func (p *partition) append(m Message) int64 {
	p.mu.Lock()
	offset := p.appendLocked(&m)
	p.hwm.Store(offset + 1)
	waiters, subs := p.endAppendLocked()
	p.mu.Unlock()
	wake(waiters, subs)
	return offset
}

// appendBatch assigns consecutive offsets to the messages of msgs whose
// (resolved) Partition is this partition, in their order; copies them into
// the log, wakes blocked fetchers and applies retention — all under one lock
// acquisition with one coalesced subscriber signal, so an N-record
// changelog flush costs the same synchronization as a single append.
func (p *partition) appendBatch(msgs []Message) {
	p.mu.Lock()
	last := int64(-1)
	for i := range msgs {
		if msgs[i].Partition == p.id {
			last = p.appendLocked(&msgs[i])
		}
	}
	if last < 0 {
		p.mu.Unlock()
		return
	}
	p.hwm.Store(last + 1)
	waiters, subs := p.endAppendLocked()
	p.mu.Unlock()
	wake(waiters, subs)
}

// appendLocked frames m into the active segment, rolling a new one when it
// is full, and returns its offset.
func (p *partition) appendLocked(m *Message) int64 {
	active := p.segments[len(p.segments)-1]
	if active.full(p.maxSegmentBytes) {
		active = newSegmentLike(active)
		p.segments = append(p.segments, active)
	}
	off := active.nextOffset()
	active.append(m, p.maxSegmentBytes)
	return off
}

// endAppendLocked applies retention after an append and takes the blocked
// fetchers' wait channels and a snapshot of the subscribers, for wake to
// signal once the lock is released.
func (p *partition) endAppendLocked() (waiters, subs []chan struct{}) {
	waiters, p.waiters = p.waiters, nil
	p.applyRetentionLocked()
	return waiters, p.subs
}

// wake closes the wait channels and signals persistent subscribers without
// blocking: a full buffer means a wakeup is already pending, which is all
// the subscriber needs.
func wake(waiters, subs []chan struct{}) {
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

// fetch returns up to max records with offsets >= offset in a slice the
// caller owns. If no records at or above offset exist yet (offset >= high
// watermark is allowed up to exactly the watermark), it returns an empty
// slice plus a wait channel that is closed on the next append. Fetching below
// the log start offset returns ErrOffsetOutOfRange.
func (p *partition) fetch(offset int64, max int) ([]Record, <-chan struct{}, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out, err := p.readLocked(nil, offset, max)
	if err != nil {
		return nil, nil, err
	}
	if len(out) == 0 {
		// At the high watermark, or every record in range was removed by
		// compaction; the caller should retry from the high watermark.
		w := make(chan struct{})
		p.waiters = append(p.waiters, w)
		return nil, w, nil
	}
	return out, nil, nil
}

// read appends to dst up to max records with offsets >= offset. Unlike
// fetch it never registers a wait channel: its caller, a Consumer, parks on
// its persistent subscriber channel instead, and a waiter nobody receives
// from would sit on an idle partition until the next append.
func (p *partition) read(dst []Record, offset int64, max int) ([]Record, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.readLocked(dst, offset, max)
}

// readLocked is read under p.mu (shared or exclusive).
func (p *partition) readLocked(dst []Record, offset int64, max int) ([]Record, error) {
	if offset < p.logStartOffset {
		return dst, fmt.Errorf("%w: fetch %s-%d@%d below log start %d",
			ErrOffsetOutOfRange, p.topic, p.id, offset, p.logStartOffset)
	}
	if hwm := p.segments[len(p.segments)-1].nextOffset(); offset > hwm {
		return dst, fmt.Errorf("%w: fetch %s-%d@%d above high watermark %d",
			ErrOffsetOutOfRange, p.topic, p.id, offset, hwm)
	}
	// First segment whose range ends past offset: a consumer at the tail of
	// a long log skips the head by binary search, not by walking it.
	lo, hi := 0, len(p.segments)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); p.segments[mid].nextOffset() <= offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := len(dst)
	for _, s := range p.segments[lo:] {
		dst = s.read(dst, offset, max-(len(dst)-n), p.topic, p.id)
		if len(dst)-n >= max {
			break
		}
		offset = s.nextOffset()
	}
	return dst, nil
}

// closedSegmentCount reports how many non-active segments the partition
// holds; the broker uses it to decide when compaction is worthwhile.
func (p *partition) closedSegmentCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.segments) - 1
}
