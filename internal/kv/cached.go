package kv

import (
	"fmt"
	"time"

	"samzasql/internal/metrics"
)

// ObjectEncoder serializes a decoded state object back to store bytes. A
// cached store holding a deferred-encode entry calls it at flush or eviction
// time, so a value rewritten N times between commits is encoded once.
type ObjectEncoder func(obj any) ([]byte, error)

// ObjectCache is the extended store interface operators use to keep decoded
// state resident and skip per-tuple serde work. It is implemented by
// CachedStore; operators type-assert their Store and fall back to the plain
// byte path when the job runs with the cache disabled.
//
// Byte-level and object-level accessors share one coherent entry per key:
// PutObject supersedes earlier Put bytes and vice versa. Keys routed through
// Uncached bypass the cache entirely, so a given key space must use either
// the cached or the uncached path, never both.
type ObjectCache interface {
	Store
	Flushable
	// GetObject returns the memoized decoded object for key, if resident.
	GetObject(key []byte) (obj any, ok bool)
	// PutObject records obj as the authoritative value for key. Encoding is
	// deferred to flush/eviction via enc. The caller must not mutate obj
	// afterwards without calling PutObject again.
	PutObject(key []byte, obj any, enc ObjectEncoder)
	// GetObjectMany is the batched form of GetObject: it fills objs[i],
	// oks[i] for each keys[i], leaving misses for the caller to resolve
	// via GetMany plus its decoder.
	GetObjectMany(keys [][]byte, objs []any, oks []bool)
	// CacheObject memoizes the decoded form of the value just read with Get,
	// without dirtying the entry. It is a no-op if key is not resident.
	CacheObject(key []byte, obj any)
	// Uncached returns the store underneath the cache, for key spaces the
	// cache would not help (write-once keys that are range-scanned and
	// purged, never re-read point-wise).
	Uncached() Store
}

// cacheEntry is one key's cached state plus its LRU and dirty-batch linkage.
type cacheEntry struct {
	key   string
	value []byte        // encoded value; nil for tombstones and deferred encodes
	obj   any           // memoized decoded object, when known
	enc   ObjectEncoder // non-nil while value must be re-derived from obj
	// present distinguishes a live key from a negative entry / buffered
	// tombstone.
	present bool
	dirty   bool

	prev, next *cacheEntry // LRU list, most-recent first
}

// CachedStore wraps a Store with a bounded LRU cache of decoded values and a
// deduplicating write-behind batch, after Samza's CachedStore
// (object.cache.size / write.batch.size). Reads of hot keys skip the
// skiplist and the serde; repeated writes to one key between commits
// collapse to a single downstream Put — which, over a ChangelogStore, also
// means a single changelog record per key per commit interval.
//
// Writes are held in the cache (write-behind) until Flush, an eviction of a
// dirty entry, a range/len access (which must see them), or the dirty count
// reaching the batch cap. The container calls Flush at commit before the
// offset checkpoint, and Flush cascades to the wrapped store, so the
// store-flush -> changelog-flush -> offset-commit order holds through the
// whole stack. Like every task store, a CachedStore is single-goroutine.
type CachedStore struct {
	inner    Store
	entries  map[string]*cacheEntry
	lru      cacheEntry // sentinel; lru.next is most recent
	capacity int

	dirtyList  []*cacheEntry // flush order = first-dirtied order
	dirtyCount int
	batchCap   int

	// GetMany scratch, reused across calls so batched reads stay
	// allocation-free once warm.
	missKeys [][]byte
	missIdx  []int
	missVals [][]byte
	missOks  []bool

	// lenDirty notes Len()/Range() must write the batch through before
	// asking the inner store.
	hits, misses, evictions *metrics.Counter
	flushLat                *metrics.Histogram
}

// NewCachedStore wraps inner with an LRU of at most cacheSize entries and a
// write batch of at most batchSize dirty keys. cacheSize must be positive;
// batchSize <= 0 selects DefaultWriteBatchSize.
func NewCachedStore(inner Store, cacheSize, batchSize int) *CachedStore {
	if cacheSize <= 0 {
		panic("kv: cache size must be positive")
	}
	if batchSize <= 0 {
		batchSize = DefaultWriteBatchSize
	}
	c := &CachedStore{
		inner:    inner,
		entries:  make(map[string]*cacheEntry, cacheSize),
		capacity: cacheSize,
		batchCap: batchSize,
	}
	c.lru.prev = &c.lru
	c.lru.next = &c.lru
	return c
}

// BindMetrics registers cache hit/miss/eviction counters and a flush latency
// histogram under "store.<name>.cache.*". Handles are bound once; the access
// path pays one lock-free counter increment.
func (c *CachedStore) BindMetrics(reg *metrics.Registry, name string) {
	prefix := "store." + name + ".cache."
	c.hits = reg.Counter(prefix + "hits")
	c.misses = reg.Counter(prefix + "misses")
	c.evictions = reg.Counter(prefix + "evictions")
	c.flushLat = reg.Histogram(prefix + "flush-ns")
}

// Uncached returns the wrapped store.
func (c *CachedStore) Uncached() Store { return c.inner }

func (c *CachedStore) touch(e *cacheEntry) {
	if c.lru.next == e {
		return
	}
	if e.prev != nil { // already linked: unlink first
		e.prev.next = e.next
		e.next.prev = e.prev
	}
	e.prev = &c.lru
	e.next = c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// insert links a new entry at the LRU front, evicting from the tail when
// over capacity. Evicting a dirty entry writes it through to the inner store
// first so a later cache miss on that key cannot read a stale value.
func (c *CachedStore) insert(e *cacheEntry) {
	c.entries[e.key] = e
	c.touch(e)
	for len(c.entries) > c.capacity {
		tail := c.lru.prev
		if tail == &c.lru {
			return
		}
		if tail.dirty {
			c.writeThrough(tail)
			tail.dirty = false
			c.dirtyCount--
		}
		tail.prev.next = tail.next
		tail.next.prev = tail.prev
		tail.prev, tail.next = nil, nil
		delete(c.entries, tail.key)
		if c.evictions != nil {
			c.evictions.Inc()
		}
	}
}

// writeThrough pushes one entry's buffered write to the inner store,
// encoding a deferred object first. Encode failures are programming errors
// on the state path (the same object encoded fine before) and panic, as the
// byte Store interface has no error channel.
func (c *CachedStore) writeThrough(e *cacheEntry) {
	if !e.present {
		c.inner.Delete([]byte(e.key))
		return
	}
	c.encodeEntry(e)
	c.inner.Put([]byte(e.key), e.value)
}

func (c *CachedStore) encodeEntry(e *cacheEntry) {
	if e.enc == nil {
		return
	}
	b, err := e.enc(e.obj)
	if err != nil {
		panic(fmt.Sprintf("kv: cached store encode %q: %v", e.key, err))
	}
	e.value = b
	e.enc = nil
}

// markDirty queues e for the next batch write, flushing the batch early when
// it reaches the write-batch cap.
func (c *CachedStore) markDirty(e *cacheEntry) {
	c.noteDirty(e)
	c.flushIfFull()
}

// noteDirty queues e without checking the cap; WriteMany checks it once per
// batch.
func (c *CachedStore) noteDirty(e *cacheEntry) {
	if !e.dirty {
		e.dirty = true
		c.dirtyList = append(c.dirtyList, e)
		c.dirtyCount++
	}
}

func (c *CachedStore) flushIfFull() {
	if c.dirtyCount >= c.batchCap {
		c.flushBatch()
	}
}

// setEntry makes v (owned by the cache from here on) the buffered value of
// key, or a buffered tombstone when present is false, superseding whatever
// the entry held. The cap check is the caller's.
func (c *CachedStore) setEntry(key, v []byte, present bool) {
	e, ok := c.entries[string(key)]
	if !ok {
		e = &cacheEntry{key: string(key)}
		c.insert(e)
	} else {
		c.touch(e)
	}
	e.value, e.obj, e.enc, e.present = v, nil, nil, present
	c.noteDirty(e)
}

// flushBatch writes every dirty entry through to the inner store, in
// first-dirtied order, and resets the batch. It does not flush the inner
// store; Flush does that.
func (c *CachedStore) flushBatch() {
	for _, e := range c.dirtyList {
		if !e.dirty {
			continue // written through at eviction
		}
		c.writeThrough(e)
		e.dirty = false
	}
	c.dirtyList = c.dirtyList[:0]
	c.dirtyCount = 0
}

// Flush writes the dirty batch through and then flushes the wrapped store
// (for a changelog-backed stack, producing the buffered changelog batch).
// The container calls it at commit, before the offset checkpoint.
func (c *CachedStore) Flush() error {
	t0 := time.Now()
	c.flushBatch()
	if f, ok := c.inner.(Flushable); ok {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	if c.flushLat != nil {
		c.flushLat.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}

// Get serves hot keys from the cache; misses fall through to the inner
// store and are cached, including negative results (absent keys), which
// stream-relation join probes hit constantly.
//
//samzasql:hotpath
func (c *CachedStore) Get(key []byte) ([]byte, bool) {
	if e, ok := c.entries[string(key)]; ok { // no alloc: map lookup special case
		c.touch(e)
		if c.hits != nil {
			c.hits.Inc()
		}
		if !e.present {
			return nil, false
		}
		c.encodeEntry(e)
		return e.value, true
	}
	if c.misses != nil {
		c.misses.Inc()
	}
	//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
	v, ok := c.inner.Get(key)
	//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
	c.insert(&cacheEntry{key: string(key), value: v, present: ok})
	return v, ok
}

// Put buffers the write in the cache; the inner store sees it at the next
// batch write. The value is copied, matching the inner store's contract.
//
//samzasql:hotpath
func (c *CachedStore) Put(key, value []byte) {
	//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
	c.setEntry(key, append([]byte(nil), value...), true)
	//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
	c.flushIfFull()
}

// PutObject buffers a decoded object as the key's value, deferring encoding
// to flush or eviction. Rewriting a hot key N times per commit costs N cache
// stores but only one encode and one downstream Put.
//
//samzasql:hotpath
func (c *CachedStore) PutObject(key []byte, obj any, enc ObjectEncoder) {
	if e, ok := c.entries[string(key)]; ok {
		e.value = nil
		e.obj = obj
		e.enc = enc
		e.present = true
		c.touch(e)
		//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
		c.markDirty(e)
		return
	}
	e := &cacheEntry{key: string(key), obj: obj, enc: enc, present: true}
	//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
	c.insert(e)
	//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
	c.markDirty(e)
}

// GetObject returns the memoized decoded object for key, when resident.
//
//samzasql:hotpath
func (c *CachedStore) GetObject(key []byte) (any, bool) {
	e, ok := c.entries[string(key)]
	if !ok || !e.present || e.obj == nil {
		if c.misses != nil {
			c.misses.Inc()
		}
		return nil, false
	}
	c.touch(e)
	if c.hits != nil {
		c.hits.Inc()
	}
	return e.obj, true
}

// CacheObject attaches the decoded form to a resident entry without marking
// it dirty: the bytes already in the store stay authoritative. Callers
// invoke it right after decoding a Get result.
func (c *CachedStore) CacheObject(key []byte, obj any) {
	if e, ok := c.entries[string(key)]; ok && e.present {
		e.obj = obj
	}
}

// Delete buffers a tombstone. The presence report consults the cache first
// and only probes the inner store for unknown keys.
func (c *CachedStore) Delete(key []byte) bool {
	if e, ok := c.entries[string(key)]; ok {
		was := e.present
		e.value = nil
		e.obj = nil
		e.enc = nil
		e.present = false
		c.touch(e)
		c.markDirty(e)
		return was
	}
	_, was := c.inner.Get(key)
	e := &cacheEntry{key: string(key)}
	c.insert(e)
	c.markDirty(e)
	return was
}

// Range writes the dirty batch through first — a scan must observe buffered
// writes — then scans the inner store. Key spaces that are scanned per tuple
// should use Uncached instead, or the flush defeats write batching.
func (c *CachedStore) Range(start, end []byte, limit int) []Entry {
	c.flushBatch()
	return c.inner.Range(start, end, limit)
}

// Len writes the dirty batch through and reports the inner store's size.
func (c *CachedStore) Len() int {
	c.flushBatch()
	return c.inner.Len()
}

// Stats reports the inner store's cumulative reads and writes. Cache
// absorption shows up as these growing slower than tuple counts.
func (c *CachedStore) Stats() (reads, writes int64) { return c.inner.Stats() }
