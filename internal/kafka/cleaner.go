package kafka

import (
	"bytes"
	"hash/maphash"
	"math"
	"sync"
)

// compact rewrites the closed segments of a compacted partition into one
// survivor. A record is either a full value (a tombstone when nil) or an
// append to its key's value, and a restore folds them in offset order, so
// the survivor rule is: a key keeps its latest full record, unless that is a
// tombstone, and every append after it; a key with no full record keeps all
// its appends. Offsets are preserved (leaving gaps), exactly as Kafka log
// compaction does. The active segment is never compacted so concurrent
// tailing consumers see a stable head, but its records count as later
// writes.
func (p *partition) compact() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.compacted || len(p.segments) < 2 {
		return
	}
	closed := p.segments[:len(p.segments)-1]
	active := p.segments[len(p.segments)-1]

	// The survivor of the previous compaction leads the segment chain and is
	// clean: it already obeys the rule. Its records only drop when a newer
	// full record overrides their key, so it contributes lookups below but
	// never table inserts — compaction cost tracks new data, not live size.
	dirty := p.segments
	var clean *segment
	if closed[0].clean {
		clean = closed[0]
		dirty = p.segments[1:]
	}
	c := cleaners.Get().(*cleaner)
	defer cleaners.Put(c)
	if !c.index(dirty) {
		return // too many records to number; keep the log as is
	}
	defer c.release()

	// Decide every closed record once, sizing the survivor exactly (it
	// outlives every segment it replaces), then copy the survivors' framed
	// bytes into it unchanged.
	c.keep = c.keep[:0]
	records, framed, size := 0, 0, 0
	n := uint32(0) // dirty record number, in offset order
	var m Record
	for _, s := range closed {
		for i := range s.index {
			decodeRecord(s.arena, int(s.index[i]), &m)
			var keep bool
			if s == clean {
				keep = c.full(m.Key) == 0
			} else {
				keep = c.survives(&m, n)
				n++
			}
			c.keep = append(c.keep, keep)
			if keep {
				records++
				framed += s.recordEnd(i) - int(s.index[i])
				size += m.Size()
			}
		}
	}
	if uint64(framed) > math.MaxUint32 {
		return // a survivor this large cannot be indexed; keep the log as is
	}
	merged := &segment{
		baseOffset:  closed[0].baseOffset,
		upperOffset: active.baseOffset,
		arena:       make([]byte, 0, framed),
		index:       make([]uint32, 0, records),
		offsets:     make([]int64, 0, records),
		sizeBytes:   size,
		clean:       true,
	}
	k := 0
	for _, s := range closed {
		for i := range s.index {
			if c.keep[k] {
				merged.copyRecord(s, i, s.offsetAt(i))
			}
			k++
		}
	}
	p.segments = []*segment{merged, active}
}

// cleaners recycles compaction tables between passes; partitions compact
// under their own locks, so concurrent passes each take their own.
var cleaners = sync.Pool{New: func() any { return &cleaner{seed: maphash.MakeSeed()} }}

// cleaner is compaction's key table, the design of the offset map in Kafka's
// log cleaner: an open-addressing table (linear probing, load at most one
// half) whose slots hold no pointers, reused from pass to pass, so a pass
// allocates nothing per record and the collector never scans the table.
// Dirty records are numbered in offset order across the dirty segments; a
// slot names its key by the number of a record carrying it, whose key bytes
// stay in the segment arena, and holds the number of the key's latest full
// record.
type cleaner struct {
	seed  maphash.Seed
	slots []cleanerSlot // len is zero or a power of two
	used  int
	// segs and starts locate dirty record numbers: segs[j]'s first record
	// is number starts[j]. segs is cleared after every pass so the pool
	// does not keep segments alive.
	segs   []*segment
	starts []uint32
	// keep is the survivor decision per closed record, in log order.
	keep []bool
}

type cleanerSlot struct {
	hash uint32
	key  uint32 // 1 + the number of a dirty record with this key; 0 marks an empty slot
	full uint32 // 1 + the number of the key's latest full record; 0 when it has only appends
}

const minCleanerSlots = 64

// index fills the table from the dirty segments. It reports false, leaving
// the table unusable, when the records outnumber what a slot can name.
func (c *cleaner) index(dirty []*segment) bool {
	total := 0
	for _, s := range dirty {
		total += len(s.index)
	}
	if total >= math.MaxUint32 {
		return false
	}
	c.segs, c.starts = append(c.segs[:0], dirty...), c.starts[:0]
	clear(c.slots)
	c.used = 0
	if len(c.slots) < minCleanerSlots {
		c.slots = make([]cleanerSlot, minCleanerSlots)
	}
	n := uint32(0)
	var m Record
	for _, s := range dirty {
		c.starts = append(c.starts, n)
		for i := range s.index {
			decodeRecord(s.arena, int(s.index[i]), &m)
			h := c.hash(m.Key)
			j := c.find(h, m.Key)
			if c.slots[j].key == 0 {
				if 2*(c.used+1) > len(c.slots) {
					c.grow()
					j = c.find(h, m.Key)
				}
				c.slots[j] = cleanerSlot{hash: h, key: n + 1}
				c.used++
			}
			if !m.Append {
				c.slots[j].full = n + 1
			}
			n++
		}
	}
	return true
}

// release drops the table's references to the partition's segments.
func (c *cleaner) release() {
	clear(c.segs)
	c.segs = c.segs[:0]
}

func (c *cleaner) hash(key []byte) uint32 { return uint32(maphash.Bytes(c.seed, key)) }

// full returns 1 + the number of key's latest full dirty record, 0 when it
// has none.
func (c *cleaner) full(key []byte) uint32 {
	return c.slots[c.find(c.hash(key), key)].full
}

// find returns the slot holding key, whose hash is h, or the empty slot
// where it belongs.
func (c *cleaner) find(h uint32, key []byte) int {
	mask := uint32(len(c.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.key == 0 || (s.hash == h && bytes.Equal(c.keyOf(s.key-1), key)) {
			return int(i)
		}
	}
}

// keyOf returns the key of dirty record n.
func (c *cleaner) keyOf(n uint32) []byte {
	j := len(c.starts) - 1
	for c.starts[j] > n {
		j--
	}
	s := c.segs[j]
	return recordKey(s.arena, int(s.index[n-c.starts[j]]))
}

func (c *cleaner) grow() {
	old := c.slots
	c.slots = make([]cleanerSlot, 2*len(old))
	mask := uint32(len(c.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := s.hash & mask
		for c.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = s
	}
}

// survives reports whether dirty record n, decoded in m, is in the survivor:
// an append when no full record of its key follows it, a full record when it
// is its key's latest and not a tombstone.
func (c *cleaner) survives(m *Record, n uint32) bool {
	full := c.full(m.Key)
	if m.Append {
		return full <= n // full is 1 + a record number, 0 for none
	}
	return m.Value != nil && full == n+1
}
