package kv

import (
	"fmt"
	"testing"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
)

// plainStore hides the batched fast path: the embedded interface only
// promotes Store's methods, so kv.GetMany must fall back to per-key Get.
type plainStore struct{ Store }

func TestGetManyFallsBackToPerKeyGet(t *testing.T) {
	inner := NewStore()
	inner.Put([]byte("a"), []byte("1"))
	inner.Put([]byte("c"), []byte("3"))
	s := plainStore{inner}
	if _, ok := any(s).(BatchReader); ok {
		t.Fatal("wrapper unexpectedly exposes GetMany; fallback path untested")
	}
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	GetMany(s, keys, vals, oks)
	if !oks[0] || string(vals[0]) != "1" || oks[1] || !oks[2] || string(vals[2]) != "3" {
		t.Fatalf("fallback results: vals=%q oks=%v", vals, oks)
	}
}

func TestStoreGetManyMatchesGet(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	keys := [][]byte{[]byte("k3"), []byte("nope"), []byte("k7"), []byte("k3")}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	s.(BatchReader).GetMany(keys, vals, oks)
	for i, k := range keys {
		wv, wok := s.Get(k)
		if oks[i] != wok || string(vals[i]) != string(wv) {
			t.Fatalf("key %q: batched (%q,%v) vs scalar (%q,%v)", k, vals[i], oks[i], wv, wok)
		}
	}
	// The batch counts as one read per key in the store stats.
	reads, _ := s.Stats()
	if reads != int64(4+len(keys)) {
		t.Fatalf("reads=%d, want %d", reads, 4+len(keys))
	}
}

func TestCachedStoreGetManyHitMissMix(t *testing.T) {
	inner := NewStore()
	inner.Put([]byte("hot"), []byte("H"))
	inner.Put([]byte("cold"), []byte("C"))
	c := NewCachedStore(inner, 8, 0)
	// Warm one positive and one negative entry.
	if _, ok := c.Get([]byte("hot")); !ok {
		t.Fatal("warm read failed")
	}
	if _, ok := c.Get([]byte("ghost")); ok {
		t.Fatal("phantom key")
	}
	readsBefore, _ := inner.Stats()

	keys := [][]byte{
		[]byte("hot"),   // positive hit
		[]byte("ghost"), // negative hit: absent, served without an inner read
		[]byte("cold"),  // miss: filled from the inner store
		[]byte("void"),  // miss: absent below too
		[]byte("hot"),   // repeated hit
	}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	c.GetMany(keys, vals, oks)
	if !oks[0] || string(vals[0]) != "H" || !oks[4] || string(vals[4]) != "H" {
		t.Fatalf("hit results: %q %v", vals, oks)
	}
	if oks[1] || vals[1] != nil {
		t.Fatalf("negative entry leaked a value: %q %v", vals[1], oks[1])
	}
	if !oks[2] || string(vals[2]) != "C" || oks[3] {
		t.Fatalf("miss results: %q %v", vals, oks)
	}
	// Only the two cold keys reached the inner store, in one batched read.
	readsAfter, _ := inner.Stats()
	if readsAfter-readsBefore != 2 {
		t.Fatalf("inner reads for the batch: %d, want 2", readsAfter-readsBefore)
	}
	// The misses were inserted like Get would insert them: both (including
	// the absent one, as a negative entry) now serve without inner reads.
	if v, ok := c.Get([]byte("cold")); !ok || string(v) != "C" {
		t.Fatalf("miss not cached: %q %v", v, ok)
	}
	if _, ok := c.Get([]byte("void")); ok {
		t.Fatal("absent key resurrected")
	}
	if r, _ := inner.Stats(); r != readsAfter {
		t.Fatalf("post-batch scalar reads went to the inner store (%d -> %d)", readsAfter, r)
	}
}

// TestCachedStoreGetManySeesUncommittedWrites drives the batched read over a
// write-behind dirty batch: buffered Puts, a buffered deferred-encode
// PutObject, and a buffered tombstone must all be visible before any flush
// reaches the inner store.
func TestCachedStoreGetManySeesUncommittedWrites(t *testing.T) {
	inner := NewStore()
	inner.Put([]byte("doomed"), []byte("old"))
	inner.Put([]byte("stale"), []byte("old"))
	c := NewCachedStore(inner, 16, 100) // large batch: nothing auto-flushes
	c.Put([]byte("plain"), []byte("new"))
	c.Put([]byte("stale"), []byte("new")) // overwrite shadows the inner value
	enc := func(obj any) ([]byte, error) { return []byte(obj.(string)), nil }
	c.PutObject([]byte("obj"), "decoded", ObjectEncoder(enc))
	c.Delete([]byte("doomed"))

	_, writesBefore := inner.Stats()
	if writesBefore != 2 {
		t.Fatalf("writes flushed early: %d", writesBefore)
	}
	keys := [][]byte{[]byte("plain"), []byte("stale"), []byte("obj"), []byte("doomed")}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	c.GetMany(keys, vals, oks)
	if !oks[0] || string(vals[0]) != "new" {
		t.Fatalf("buffered put invisible: %q %v", vals[0], oks[0])
	}
	if !oks[1] || string(vals[1]) != "new" {
		t.Fatalf("buffered overwrite lost to inner value: %q %v", vals[1], oks[1])
	}
	// The deferred-encode entry must be materialized on read, exactly once.
	if !oks[2] || string(vals[2]) != "decoded" {
		t.Fatalf("deferred-encode object not materialized: %q %v", vals[2], oks[2])
	}
	if oks[3] {
		t.Fatalf("buffered tombstone invisible: read %q", vals[3])
	}
	// Reads never forced the dirty batch through.
	if _, writes := inner.Stats(); writes != writesBefore {
		t.Fatalf("batched read flushed writes (%d -> %d)", writesBefore, writes)
	}
}

// TestCachedStoreGetManyEvictionMidBatch reads more distinct cold keys than
// the cache holds: inserting each miss evicts an earlier one mid-batch, and
// every already-filled result slot must survive the unlinking.
func TestCachedStoreGetManyEvictionMidBatch(t *testing.T) {
	inner := NewStore()
	const n = 6
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%d", i))
		inner.Put(keys[i], []byte(fmt.Sprintf("v%d", i)))
	}
	c := NewCachedStore(inner, 2, 0) // capacity far below the batch's key count
	vals := make([][]byte, n)
	oks := make([]bool, n)
	c.GetMany(keys, vals, oks)
	for i := range keys {
		if !oks[i] || string(vals[i]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("slot %d corrupted by mid-batch eviction: %q %v", i, vals[i], oks[i])
		}
	}
	// The survivors still answer correctly after the churn.
	for i := range keys {
		if v, ok := c.Get(keys[i]); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after eviction churn: %q %v", i, v, ok)
		}
	}
}

func TestCachedStoreGetObjectManyResidentOnly(t *testing.T) {
	inner := NewStore()
	inner.Put([]byte("bytesOnly"), []byte("raw"))
	c := NewCachedStore(inner, 8, 100)
	enc := func(obj any) ([]byte, error) { return []byte(obj.(string)), nil }
	c.PutObject([]byte("a"), "objA", ObjectEncoder(enc))
	c.Get([]byte("bytesOnly")) // resident, but bytes-only: no decoded object
	c.CacheObject([]byte("bytesOnly"), "decodedB")

	keys := [][]byte{[]byte("a"), []byte("bytesOnly"), []byte("coldKey")}
	objs := make([]any, len(keys))
	oks := make([]bool, len(keys))
	c.GetObjectMany(keys, objs, oks)
	if !oks[0] || objs[0] != "objA" {
		t.Fatalf("dirty object not served: %v %v", objs[0], oks[0])
	}
	if !oks[1] || objs[1] != "decodedB" {
		t.Fatalf("memoized object not served: %v %v", objs[1], oks[1])
	}
	if oks[2] || objs[2] != nil {
		t.Fatalf("non-resident key fabricated an object: %v %v", objs[2], oks[2])
	}
	// GetObjectMany never touches the inner store: misses are the caller's.
	if reads, _ := inner.Stats(); reads != 1 {
		t.Fatalf("inner reads = %d, want 1 (the warming Get only)", reads)
	}
}

// writeOps is a batch mixing inserts, an overwrite, a delete of a live key,
// a delete of an absent key and a put-then-delete of one key, so order
// matters.
func writeOps() []WriteOp {
	return []WriteOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("1'")},
		{Key: []byte("old"), Delete: true},
		{Key: []byte("ghost"), Delete: true},
		{Key: []byte("tmp"), Value: []byte("t")},
		{Key: []byte("tmp"), Delete: true},
		{Key: []byte("c"), Value: []byte("3")},
	}
}

// applyPerKey is what a write batch must be indistinguishable from.
func applyPerKey(s Store, ops []WriteOp) {
	for _, op := range ops {
		if op.Delete {
			s.Delete(op.Key)
		} else {
			s.Put(op.Key, op.Value)
		}
	}
}

func dumpStore(s Store) string {
	return fmt.Sprintf("%q", s.Range(nil, nil, 0))
}

func TestWriteManyFallsBackToPerKeyWrites(t *testing.T) {
	inner := NewStore()
	inner.Put([]byte("old"), []byte("x"))
	s := plainStore{inner}
	if _, ok := any(s).(BatchWriter); ok {
		t.Fatal("wrapper unexpectedly exposes WriteMany; fallback path untested")
	}
	WriteMany(s, writeOps())
	want := NewStore()
	want.Put([]byte("old"), []byte("x"))
	applyPerKey(want, writeOps())
	if got := dumpStore(inner); got != dumpStore(want) {
		t.Fatalf("fallback left %s, per-key writes leave %s", got, dumpStore(want))
	}
}

func TestStoreWriteManyMatchesPerKeyWrites(t *testing.T) {
	batched, perKey := NewStore(), NewStore()
	for _, s := range []Store{batched, perKey} {
		s.Put([]byte("old"), []byte("x"))
	}
	ops := writeOps()
	batched.(BatchWriter).WriteMany(ops)
	applyPerKey(perKey, ops)
	if got, want := dumpStore(batched), dumpStore(perKey); got != want {
		t.Fatalf("batched %s, per-key %s", got, want)
	}
	// The store copied what it kept: clobbering the batch changes nothing.
	for i := range ops {
		for j := range ops[i].Key {
			ops[i].Key[j] = 'X'
		}
		for j := range ops[i].Value {
			ops[i].Value[j] = 'X'
		}
	}
	if got, want := dumpStore(batched), dumpStore(perKey); got != want {
		t.Fatalf("store aliases batch memory: %s vs %s", got, want)
	}
	if _, writes := batched.Stats(); writes != int64(1+len(ops)) {
		t.Fatalf("writes=%d, want one per contained write (%d)", writes, 1+len(ops))
	}
}

// TestChangelogWriteManyIsOneRun pins the atomicity grain: a write batch
// lands on the changelog as one contiguous run in batch order, and the
// write-batch cap is checked only after it — never inside.
func TestChangelogWriteManyIsOneRun(t *testing.T) {
	broker := kafka.NewBroker()
	cs, err := NewChangelogStore(NewStore(), broker, "wm-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs.SetWriteBatchSize(4)
	tp := kafka.TopicPartition{Topic: "wm-cl", Partition: 0}
	cs.Put([]byte("p0"), []byte("v"))
	cs.Put([]byte("p1"), []byte("v"))
	cs.Put([]byte("p2"), []byte("v"))
	ops := writeOps() // crosses the cap of 4 on its first write
	cs.WriteMany(ops)
	if cs.Pending() != 0 {
		t.Fatalf("%d records still pending after a batch that crossed the cap", cs.Pending())
	}
	hwm, _ := broker.HighWatermark(tp)
	if hwm != int64(3+len(ops)) {
		t.Fatalf("changelog holds %d records, want %d: the early flush split the batch", hwm, 3+len(ops))
	}
	msgs, _, err := broker.Fetch(tp, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		m := msgs[i]
		if string(m.Key) != string(op.Key) || (m.Value == nil) != op.Delete || string(m.Value) != string(op.Value) {
			t.Fatalf("changelog record %d is %q=%q, want op %q=%q delete=%v", i, m.Key, m.Value, op.Key, op.Value, op.Delete)
		}
	}
	// Below the cap a batch stays buffered whole.
	cs.WriteMany(ops[:3])
	if cs.Pending() != 3 {
		t.Fatalf("pending=%d after a 3-write batch under a cap of 4", cs.Pending())
	}
	// A restore replays the batch to the same store contents.
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	restored, err := NewChangelogStore(NewStore(), broker, "wm-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpStore(restored), dumpStore(cs); got != want {
		t.Fatalf("restored %s, live %s", got, want)
	}
}

// TestCachedStoreWriteManyCoherence checks a write batch against the cache's
// dirty batch: buffered writes are superseded in place, reads see the batch
// before it is flushed, the cap is checked once after the batch, and the
// flush hands the inner store the final values in first-dirtied order.
func TestCachedStoreWriteManyCoherence(t *testing.T) {
	inner := NewStore()
	inner.Put([]byte("old"), []byte("x"))
	c := NewCachedStore(inner, 64, 6)
	c.Put([]byte("a"), []byte("stale")) // dirty entry the batch supersedes
	c.PutObject([]byte("b"), "obj", func(any) ([]byte, error) { return []byte("deferred"), nil })
	if v, _ := c.Get([]byte("old")); string(v) != "x" { // clean resident entry the batch deletes
		t.Fatalf("warm read: %q", v)
	}
	ops := writeOps()
	c.WriteMany(ops[:5]) // a, b, a again, old and ghost deleted: dirty count 4 of 6
	if _, writes := inner.Stats(); writes != 1 {
		t.Fatalf("inner saw %d writes before any flush", writes)
	}
	for key, want := range map[string]string{"a": "1'", "b": "2"} {
		if v, ok := c.Get([]byte(key)); !ok || string(v) != want {
			t.Fatalf("uncommitted read %s = %q %v, want %q", key, v, ok, want)
		}
	}
	if _, ok := c.GetObject([]byte("b")); ok {
		t.Fatal("byte write left the superseded decoded object behind")
	}
	if _, ok := c.Get([]byte("old")); ok {
		t.Fatal("buffered delete not visible")
	}
	// The rest of the batch crosses the cap of 6 dirty keys mid-batch; the
	// write-through happens after its last write.
	c.WriteMany(ops[5:])
	if _, writes := inner.Stats(); writes != 1+6 {
		t.Fatalf("inner saw %d writes, want the 6 dirty keys written through once", writes-1)
	}
	want := NewStore()
	want.Put([]byte("old"), []byte("x"))
	applyPerKey(want, ops)
	if got := dumpStore(inner); got != dumpStore(want) {
		t.Fatalf("flushed %s, per-key writes leave %s", got, dumpStore(want))
	}
}

// TestInstrumentedWriteManyCountsWrites pins the meaning of the write
// histograms' counts: writes, not calls — a batch books one put-ns
// observation per Put and one delete-ns per Delete.
func TestInstrumentedWriteManyCountsWrites(t *testing.T) {
	reg := metrics.NewRegistry()
	s := Instrument(NewStore(), reg, "w")
	ops := writeOps()
	WriteMany(s, ops)
	WriteMany(s, nil)
	snap := reg.Snapshot()
	if got := snap.Histograms["store.w.put-ns"].Count; got != 5 {
		t.Errorf("put-ns count = %d, want 5", got)
	}
	if got := snap.Histograms["store.w.delete-ns"].Count; got != 3 {
		t.Errorf("delete-ns count = %d, want 3", got)
	}
	if s.Len() != 3 {
		t.Errorf("len = %d after the batch, want a, b, c", s.Len())
	}
}
