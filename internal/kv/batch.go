package kv

// Batched point reads and writes. The vectorized operator paths cluster a
// block's tuples by state key, fetch every distinct key's state in one call
// and hand every write the block caused back in one call, so the store stack
// pays its per-operation overhead — the skiplist lock, the latency
// observation, the trace leaf, the changelog produce — once per block instead
// of once per tuple.

// BatchReader is implemented by stores that can serve multi-key point
// reads with amortized per-call overhead. vals and oks are caller-owned
// result slices of the same length as keys; vals[i], oks[i] receive what
// Get(keys[i]) would have returned.
type BatchReader interface {
	GetMany(keys [][]byte, vals [][]byte, oks []bool)
}

// GetMany reads every keys[i] from s into vals[i], oks[i], using the
// store's batched fast path when it has one and falling back to per-key
// Get otherwise. len(vals) and len(oks) must equal len(keys).
//
//samzasql:hotpath
func GetMany(s Store, keys [][]byte, vals [][]byte, oks []bool) {
	if br, ok := s.(BatchReader); ok {
		br.GetMany(keys, vals, oks)
		return
	}
	for i, k := range keys {
		//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
		vals[i], oks[i] = s.Get(k)
	}
}

// WriteOp is one write of a write batch: a Put of Value under Key, or a
// Delete of Key when Delete is set. Stores copy the key and value bytes they
// retain, so the caller may reuse both once WriteMany returns.
type WriteOp struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// BatchWriter is implemented by stores that apply a sequence of writes as
// one unit, in order. A write batch is the atomicity grain of the changelog:
// a ChangelogStore never flushes early between two writes of one batch, so
// writes that only make sense together (a window partition's chunk writes
// and the state row whose cursors point into them) reach the changelog
// together or not at all. A single Put or Delete is a batch of one.
type BatchWriter interface {
	WriteMany(ops []WriteOp)
}

// WriteMany applies ops to s in order, through the store's batched path when
// it has one and as per-key Put/Delete calls otherwise.
//
//samzasql:hotpath
func WriteMany(s Store, ops []WriteOp) {
	if bw, ok := s.(BatchWriter); ok {
		bw.WriteMany(ops)
		return
	}
	for i := range ops {
		if ops[i].Delete {
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			s.Delete(ops[i].Key)
		} else {
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			s.Put(ops[i].Key, ops[i].Value)
		}
	}
}

// GetMany serves the whole batch under one lock acquisition: each key costs
// one probe of the point index, and the mutex and the read-counter update are
// paid once per block rather than once per key.
//
//samzasql:hotpath
func (s *store) GetMany(keys [][]byte, vals [][]byte, oks []bool) {
	//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads += int64(len(keys))
	for i, k := range keys {
		vals[i], oks[i] = s.get(k)
	}
}

// WriteMany applies the whole batch under one lock acquisition.
//
//samzasql:hotpath
func (s *store) WriteMany(ops []WriteOp) {
	//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes += int64(len(ops))
	for i := range ops {
		if ops[i].Delete {
			s.remove(ops[i].Key)
		} else {
			s.put(ops[i].Key, ops[i].Value)
		}
	}
}

// GetMany forwards the batched read to the store underneath; reads need no
// changelog mirroring. (The embedded Store interface does not promote the
// method — it is not part of Store — so the forwarder is explicit.)
//
//samzasql:hotpath
func (c *ChangelogStore) GetMany(keys [][]byte, vals [][]byte, oks []bool) {
	GetMany(c.Store, keys, vals, oks)
}

// WriteMany writes the batch through to the inner store and mirrors it as
// one contiguous run of the pending buffer; the write-batch cap is checked
// only after the whole run, so an early flush never splits a batch.
//
//samzasql:hotpath
func (c *ChangelogStore) WriteMany(ops []WriteOp) {
	WriteMany(c.Store, ops)
	for i := range ops {
		if ops[i].Delete {
			c.buffer(ops[i].Key, nil)
		} else {
			c.buffer(ops[i].Key, ops[i].Value)
		}
	}
	//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
	c.flushIfFull()
}

// GetMany serves cache-resident keys (including buffered uncommitted
// writes and negative entries) straight from the cache and gathers the
// misses into one inner batched read, so a block whose keys are cold costs
// a single lock acquisition downstream instead of one per key. Entries
// fetched for misses are inserted like Get would insert them; an insert
// can evict an earlier entry mid-batch, which is safe because already
// filled vals alias entry value slices that survive unlinking.
//
//samzasql:hotpath
func (c *CachedStore) GetMany(keys [][]byte, vals [][]byte, oks []bool) {
	missKeys := c.missKeys[:0]
	missIdx := c.missIdx[:0]
	for i, k := range keys {
		if e, ok := c.entries[string(k)]; ok {
			c.touch(e)
			if c.hits != nil {
				c.hits.Inc()
			}
			if e.present {
				c.encodeEntry(e)
				vals[i], oks[i] = e.value, true
			} else {
				vals[i], oks[i] = nil, false
			}
			continue
		}
		if c.misses != nil {
			c.misses.Inc()
		}
		missKeys = append(missKeys, k)
		missIdx = append(missIdx, i)
	}
	if len(missKeys) > 0 {
		missVals := c.missVals[:0]
		missOks := c.missOks[:0]
		for range missKeys {
			missVals = append(missVals, nil)
			missOks = append(missOks, false)
		}
		GetMany(c.inner, missKeys, missVals, missOks)
		for j, i := range missIdx {
			vals[i], oks[i] = missVals[j], missOks[j]
			// A duplicate key earlier in this batch may have inserted the
			// entry already; re-inserting would double-link it in the LRU.
			if _, ok := c.entries[string(missKeys[j])]; !ok {
				//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
				c.insert(&cacheEntry{key: string(missKeys[j]), value: missVals[j], present: missOks[j]})
			}
		}
		c.missVals, c.missOks = missVals[:0], missOks[:0]
	}
	c.missKeys, c.missIdx = missKeys[:0], missIdx[:0]
}

// GetObjectMany fills objs[i], oks[i] with the memoized decoded object for
// each resident keys[i] — the batched form of GetObject. Misses are left
// for the caller to resolve through GetMany plus its decoder; unlike
// GetMany this never touches the inner store, because only the caller
// knows how to decode.
//
//samzasql:hotpath
func (c *CachedStore) GetObjectMany(keys [][]byte, objs []any, oks []bool) {
	for i, k := range keys {
		e, ok := c.entries[string(k)]
		if !ok || !e.present || e.obj == nil {
			if c.misses != nil {
				c.misses.Inc()
			}
			objs[i], oks[i] = nil, false
			continue
		}
		c.touch(e)
		if c.hits != nil {
			c.hits.Inc()
		}
		objs[i], oks[i] = e.obj, true
	}
}

// WriteMany buffers the whole batch in the cache — each write supersedes the
// key's entry exactly as Put or Delete would — and checks the write-batch
// cap once, after the last write, so a cap-triggered write-through never
// lands between two writes of one batch.
//
//samzasql:hotpath
func (c *CachedStore) WriteMany(ops []WriteOp) {
	for i := range ops {
		var v []byte
		if !ops[i].Delete {
			v = append([]byte(nil), ops[i].Value...)
		}
		//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
		c.setEntry(ops[i].Key, v, !ops[i].Delete)
	}
	//samzasql:ignore hotpath-blocking -- write-through to the changelog is the durability contract; the flush path's broker append lock is per-partition and the io.Write is an in-memory FNV hash
	c.flushIfFull()
}
