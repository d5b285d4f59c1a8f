// Package kv implements the managed local key-value state store Samza gives
// each streaming task (§2 "Fault-tolerant Local State", §4.3, §4.4): a
// byte-keyed store with point reads, batched writes and range scans,
// optionally backed by a compacted Kafka changelog topic for
// restore-after-failure.
package kv

import (
	"bytes"
	"sync"
)

// Entry is one key-value pair returned by iteration.
type Entry struct {
	Key   []byte
	Value []byte
}

// Store is the task-local state interface handed to operators.
//
// Views: the key and value slices Get, GetMany and Range return alias the
// store's pages, capped at their length. A view stays valid until the next
// write to the same store that adds bytes (a put or an append, alone or in a
// batch); a delete does not end it. A caller that needs bytes past such a
// write copies them.
type Store interface {
	// Get returns the value for key, or ok=false, as a read-only view.
	Get(key []byte) (value []byte, ok bool)
	// Put inserts or replaces key. Key and value bytes are copied.
	Put(key, value []byte)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) bool
	// Range returns entries with start <= key < end (nil = unbounded),
	// at most limit (<=0 = all), in key order, as views.
	Range(start, end []byte, limit int) []Entry
	// Len returns the number of live keys.
	Len() int
}

// store is the mutex-guarded in-memory engine implementing Store: entry
// bytes in pages, a {hash, ref} point index for everything addressed by
// exact key, and the key order, which only a store that is asked for a
// Range builds. The index and the ordered view always hold the same refs;
// put, appendValue, remove and evacuate are the only places that change
// them.
type store struct {
	mu  sync.RWMutex
	pg  pageSet
	idx pointIndex
	// ordered is nil until the first Range.
	ordered *orderedView
}

// NewStore returns an empty in-memory store.
func NewStore() Store { return newStore(pageShift) }

// newStore returns a store with pages of 1<<shift bytes; tests shrink them
// to force evacuation.
func newStore(shift uint) *store {
	return &store{pg: newPageSet(shift), idx: newPointIndex()}
}

// find returns the index slot holding key, whose hash is h, or -1: one probe
// and, on a hash match, one page read.
//
//samzasql:hotpath
func (s *store) find(h uint32, key []byte) int {
	x := &s.idx
	if len(x.slots) == 0 {
		return -1
	}
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := x.slots[i]
		if sl.ref == 0 {
			return -1
		}
		if sl.hash == h && bytes.Equal(s.pg.key(sl.ref), key) {
			return int(i)
		}
	}
}

// get is the point read.
//
//samzasql:hotpath
func (s *store) get(key []byte) ([]byte, bool) {
	i := s.find(s.idx.hash(key), key)
	if i < 0 {
		return nil, false
	}
	_, v, _ := s.pg.entry(s.idx.slots[i].ref)
	return v, true
}

// put inserts or replaces key, writing key and value as a new entry at the
// active page's end; the replaced entry's bytes count as dead.
func (s *store) put(key, value []byte) {
	h := s.idx.hash(key)
	if i := s.find(h, key); i >= 0 {
		old := s.idx.slots[i].ref
		s.replace(i, key, old, s.pg.write(key, value, nil))
		return
	}
	s.insert(h, key, s.pg.write(key, value, nil))
}

// appendValue extends key's value with value, or inserts key with value.
// The newest entry on the active page grows in place; any other is
// rewritten, old value and new bytes, at the page's end. Views are capped,
// so none sees the new bytes either way.
func (s *store) appendValue(key, value []byte) {
	h := s.idx.hash(key)
	if i := s.find(h, key); i >= 0 {
		old := s.idx.slots[i].ref
		if s.pg.growLast(old, value) {
			return
		}
		_, v, _ := s.pg.entry(old)
		s.replace(i, key, old, s.pg.write(key, v, value))
		return
	}
	s.insert(h, key, s.pg.write(key, value, nil))
}

func (s *store) insert(h uint32, key []byte, ref uint32) {
	s.idx.add(h, ref)
	if s.ordered != nil {
		s.ordered.insert(&s.pg, key, ref)
	}
}

// replace points slot i, and the ordered view, at ref, the new entry of key,
// and marks old dead.
func (s *store) replace(i int, key []byte, old, ref uint32) {
	s.idx.slots[i].ref = ref
	if s.ordered != nil {
		s.ordered.replace(&s.pg, key, old, ref)
	}
	s.pg.kill(old)
}

// remove deletes key, reporting whether it was present. It only counts the
// entry's bytes as dead: callers delete keys while they hold Range views.
func (s *store) remove(key []byte) bool {
	i := s.find(s.idx.hash(key), key)
	if i < 0 {
		return false
	}
	ref := s.idx.slots[i].ref
	if s.ordered != nil {
		s.ordered.remove(&s.pg, key, ref)
	}
	s.idx.removeAt(i)
	s.pg.kill(ref)
	return true
}

// evacuate ends every write batch that added bytes: each queued page's live
// entries are copied to the active page, the index and the ordered view
// follow them, and the page goes to the free list. Views into those pages
// stay readable until a later write reuses them.
func (s *store) evacuate() {
	for n := len(s.pg.victims); n > 0; n = len(s.pg.victims) {
		id := s.pg.victims[n-1]
		s.pg.victims = s.pg.victims[:n-1]
		page := s.pg.bufs[id][:s.pg.meta[id].used]
		for off := 0; off < len(page); {
			k, v, size := entry(page[off:])
			ref := id<<s.pg.shift | uint32(off)
			dead := page[off]&1 != 0
			off += size
			if dead {
				continue
			}
			i := s.idx.slotOf(s.idx.hash(k), ref)
			moved := s.pg.write(k, v, nil)
			s.idx.slots[i].ref = moved
			if s.ordered != nil {
				s.ordered.replace(&s.pg, k, ref, moved)
			}
		}
		s.pg.release(id)
	}
}

func (s *store) Get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.get(key)
}

func (s *store) Put(key, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, value)
	s.evacuate()
}

func (s *store) Delete(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remove(key)
}

// Range serves a scan from the ordered view, building it on the first call.
func (s *store) Range(start, end []byte, limit int) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ordered == nil {
		s.ordered = s.buildOrdered()
	}
	return s.ordered.scan(&s.pg, start, end, limit)
}

func (s *store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.n
}
