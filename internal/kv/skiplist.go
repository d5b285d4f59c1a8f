// Package kv implements the managed local key-value state store Samza gives
// each streaming task (§2 "Fault-tolerant Local State", §4.3, §4.4): an
// ordered byte-keyed store with range scans, optionally backed by a
// compacted Kafka changelog topic for restore-after-failure.
package kv

import (
	"bytes"
	"math/rand"
	"sync"
)

const maxHeight = 16

type skipNode struct {
	key   []byte
	value []byte
	next  [maxHeight]*skipNode
}

// skiplist is the ordered half of the in-memory engine behind Store: it
// places new keys in O(log n) and iterates in key order. Exact-key access
// goes through the store's point index instead of descending it.
type skiplist struct {
	head   *skipNode
	height int
	length int
	rng    *rand.Rand
}

func newSkiplist() *skiplist {
	return &skiplist{
		head:   &skipNode{},
		height: 1,
		// Deterministic seed: store behaviour must not vary across runs.
		rng: rand.New(rand.NewSource(0x5a3a)),
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= key, recording the
// rightmost node before it at every level in prev (when prev != nil).
func (s *skiplist) findGreaterOrEqual(key []byte, prev *[maxHeight]*skipNode) *skipNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// insert links a new node owning key and value, which must not be in the
// list yet (the store's point index has already said so), and returns it.
func (s *skiplist) insert(key, value []byte) *skipNode {
	var prev [maxHeight]*skipNode
	for level := s.height; level < maxHeight; level++ {
		prev[level] = s.head
	}
	s.findGreaterOrEqual(key, &prev)
	h := s.randomHeight()
	if h > s.height {
		s.height = h
	}
	node := &skipNode{key: key, value: value}
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	s.length++
	return node
}

// unlink removes n, a node of this list.
func (s *skiplist) unlink(n *skipNode) {
	var prev [maxHeight]*skipNode
	s.findGreaterOrEqual(n.key, &prev)
	for level := 0; level < s.height; level++ {
		if prev[level].next[level] == n {
			prev[level].next[level] = n.next[level]
		}
	}
	for s.height > 1 && s.head.next[s.height-1] == nil {
		s.height--
	}
	s.length--
}

// view returns the node's value capped at its length: an append that grows
// the value in place writes past every view handed out before it.
func (n *skipNode) view() []byte { return n.value[:len(n.value):len(n.value)] }

// Entry is one key-value pair returned by iteration.
type Entry struct {
	Key   []byte
	Value []byte
}

// rangeScan collects entries with start <= key < end. nil start means from
// the beginning, nil end means to the end; limit <= 0 means unlimited.
func (s *skiplist) rangeScan(start, end []byte, limit int) []Entry {
	var out []Entry
	var n *skipNode
	if start == nil {
		n = s.head.next[0]
	} else {
		n = s.findGreaterOrEqual(start, nil)
	}
	for n != nil {
		if end != nil && bytes.Compare(n.key, end) >= 0 {
			break
		}
		out = append(out, Entry{Key: n.key, Value: n.view()})
		if limit > 0 && len(out) >= limit {
			break
		}
		n = n.next[0]
	}
	return out
}

// store is the mutex-guarded ordered map implementing Store: a skiplist for
// order and a point index over its nodes for everything addressed by exact
// key. Both always hold the same key set; put and remove are the only places
// that change it.
type store struct {
	mu   sync.RWMutex
	list *skiplist
	idx  pointIndex
	// writes and reads count store operations, exposed for the paper's
	// observation that sliding-window throughput is KV-access bound (§5.1).
	writes int64
	reads  int64
}

// NewStore returns an empty ordered in-memory store.
func NewStore() Store {
	return &store{list: newSkiplist(), idx: newPointIndex()}
}

// get is the point read: one hash probe, no list descent.
//
//samzasql:hotpath
func (s *store) get(key []byte) ([]byte, bool) {
	if n := s.idx.find(s.idx.hash(key), key); n != nil {
		return n.view(), true
	}
	return nil, false
}

// put inserts or replaces key. It copies value always and key only when the
// key is new; an overwrite (the common case for state rows and chunk
// rewrites) swaps the value of the node the index names and never descends
// the list.
func (s *store) put(key, value []byte) {
	v := append([]byte(nil), value...)
	h := s.idx.hash(key)
	if n := s.idx.find(h, key); n != nil {
		n.value = v
		return
	}
	s.idx.add(h, s.list.insert(append([]byte(nil), key...), v))
}

// appendValue extends key's value with value, growing it into spare
// capacity where there is some, or inserts key with a copy of value. Reads
// hand out capped views (skipNode.view), so no earlier view sees the new
// bytes; a put always takes a fresh copy, because it would overwrite bytes
// those views still show.
func (s *store) appendValue(key, value []byte) {
	h := s.idx.hash(key)
	if n := s.idx.find(h, key); n != nil {
		n.value = append(n.value, value...)
		return
	}
	s.idx.add(h, s.list.insert(append([]byte(nil), key...), append([]byte(nil), value...)))
}

// remove deletes key, reporting whether it was present. An absent key costs
// one hash probe.
func (s *store) remove(key []byte) bool {
	h := s.idx.hash(key)
	n := s.idx.find(h, key)
	if n == nil {
		return false
	}
	s.list.unlink(n)
	s.idx.remove(h, n)
	return true
}

// Store is the task-local state interface handed to operators.
type Store interface {
	// Get returns the value for key, or ok=false. The value is a read-only
	// view capped at its length, so a later append to the key never shows
	// through it.
	Get(key []byte) (value []byte, ok bool)
	// Put inserts or replaces key. Key and value bytes are copied.
	Put(key, value []byte)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) bool
	// Range returns entries with start <= key < end (nil = unbounded),
	// at most limit (<=0 = all), in key order. Values are capped views, as
	// Get's are.
	Range(start, end []byte, limit int) []Entry
	// Len returns the number of live keys.
	Len() int
	// Stats returns cumulative (reads, writes).
	Stats() (reads, writes int64)
}

func (s *store) Get(key []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	return s.get(key)
}

func (s *store) Put(key, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	s.put(key, value)
}

func (s *store) Delete(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	return s.remove(key)
}

func (s *store) Range(start, end []byte, limit int) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	return s.list.rangeScan(start, end, limit)
}

func (s *store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.list.length
}

func (s *store) Stats() (int64, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reads, s.writes
}
