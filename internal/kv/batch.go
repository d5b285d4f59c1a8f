package kv

// Batched point reads and writes. The vectorized operator paths cluster a
// block's tuples by state key, fetch every distinct key's state in one call
// and hand every write the block caused back in one call, so the store stack
// pays its per-operation overhead — the store lock, the latency
// observation, the changelog produce — once per block instead of once per
// tuple.

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
		vals[i], oks[i] = s.Get(k)
	}
}

// WriteKind is what a WriteOp does to its key.
type WriteKind uint8

const (
	// OpPut replaces the key's value with Value.
	OpPut WriteKind = iota
	// OpDelete removes the key; Value is ignored.
	OpDelete
	// OpAppend extends the key's value with Value, creating the key when it
	// is absent. A writer that grows a value appends only the new bytes, so
	// the store and the changelog copy what is new, not the whole value.
	OpAppend
)

// WriteOp is one write of a write batch. Stores copy the key and value bytes
// they retain, so the caller may reuse both once WriteMany returns.
type WriteOp struct {
	Key   []byte
	Value []byte
	Kind  WriteKind
}

// BatchWriter is implemented by stores that apply a sequence of writes as
// one unit, in order. A write batch is the atomicity grain of the changelog:
// a ChangelogStore produces each batch as one contiguous run, so writes that
// only make sense together (a window partition's chunk writes and the state
// row whose cursors point into them) reach the changelog together or not at
// all. A single Put or Delete is a batch of one.
type BatchWriter interface {
	WriteMany(ops []WriteOp)
}

// WriteMany applies ops to s in order, through the store's batched path when
// it has one and as per-key calls otherwise; an append then reads the value
// and puts it back extended.
//
//samzasql:hotpath
func WriteMany(s Store, ops []WriteOp) {
	if bw, ok := s.(BatchWriter); ok {
		bw.WriteMany(ops)
		return
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpDelete:
			s.Delete(op.Key)
		case OpAppend:
			old, _ := s.Get(op.Key)
			s.Put(op.Key, append(old[:len(old):len(old)], op.Value...))
		default:
			s.Put(op.Key, op.Value)
		}
	}
}

// GetMany serves the whole batch under one lock acquisition: each key costs
// one probe of the point index, and the mutex and the read-counter update are
// paid once per block rather than once per key.
//
//samzasql:hotpath
func (s *store) GetMany(keys [][]byte, vals [][]byte, oks []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads += int64(len(keys))
	for i, k := range keys {
		vals[i], oks[i] = s.get(k)
	}
}

// WriteMany applies the whole batch under one lock acquisition, then, when
// the batch added bytes, evacuates the pages it left mostly dead.
//
//samzasql:hotpath
func (s *store) WriteMany(ops []WriteOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes += int64(len(ops))
	added := false
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case OpDelete:
			s.remove(op.Key)
		case OpAppend:
			s.appendValue(op.Key, op.Value)
			added = true
		default:
			s.put(op.Key, op.Value)
			added = true
		}
	}
	if added {
		s.evacuate()
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

// WriteMany writes the batch through to the inner store and produces it as
// one contiguous run of changelog records, so a batch reaches the log whole.
// An append goes to the log as an append record carrying only the new bytes.
//
//samzasql:hotpath
func (c *ChangelogStore) WriteMany(ops []WriteOp) {
	WriteMany(c.Store, ops)
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case OpDelete:
			c.buffer(op.Key, nil, false)
		default:
			c.buffer(op.Key, op.Value, op.Kind == OpAppend)
		}
	}
	c.produce()
}
