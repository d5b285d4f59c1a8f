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
}

// writeOps is a batch mixing inserts, an overwrite, a delete of a live key,
// a delete of an absent key and a put-then-delete of one key, so order
// matters.
func writeOps() []WriteOp {
	return []WriteOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("1'")},
		{Key: []byte("old"), Kind: OpDelete},
		{Key: []byte("ghost"), Kind: OpDelete},
		{Key: []byte("tmp"), Value: []byte("t")},
		{Key: []byte("tmp"), Kind: OpDelete},
		{Key: []byte("c"), Value: []byte("3")},
		{Key: []byte("a"), Value: []byte("+"), Kind: OpAppend},
		{Key: []byte("d"), Value: []byte("4"), Kind: OpAppend},
	}
}

// applyPerKey is what a write batch must be indistinguishable from; an
// append is a read and a put of the extended value.
func applyPerKey(s Store, ops []WriteOp) {
	for _, op := range ops {
		switch op.Kind {
		case OpDelete:
			s.Delete(op.Key)
		case OpAppend:
			old, _ := s.Get(op.Key)
			s.Put(op.Key, append(append([]byte(nil), old...), op.Value...))
		default:
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
}

// TestChangelogWriteManyIsOneRun pins the write-through changelog and its
// atomicity grain: each Put and Delete is one record on the topic by the
// time the call returns, and each write batch lands as one contiguous run in
// batch order by the time WriteMany returns.
func TestChangelogWriteManyIsOneRun(t *testing.T) {
	broker := kafka.NewBroker()
	cs, err := NewChangelogStore(NewStore(), broker, "wm-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := kafka.TopicPartition{Topic: "wm-cl", Partition: 0}
	hwm := func() int64 {
		h, err := broker.HighWatermark(tp)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	cs.Put([]byte("p0"), []byte("v"))
	if got := hwm(); got != 1 {
		t.Fatalf("changelog holds %d records after one Put, want 1", got)
	}
	cs.Put([]byte("p1"), []byte("v"))
	cs.Delete([]byte("p0"))
	if got := hwm(); got != 3 {
		t.Fatalf("changelog holds %d records after Put, Put, Delete, want 3", got)
	}
	ops := writeOps()
	cs.WriteMany(ops)
	if got := hwm(); got != int64(3+len(ops)) {
		t.Fatalf("changelog holds %d records after the batch, want %d", got, 3+len(ops))
	}
	msgs, _, err := broker.Fetch(tp, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m := msgs[2]; string(m.Key) != "p0" || m.Value != nil {
		t.Fatalf("record 2 is %q=%q, want the p0 tombstone", m.Key, m.Value)
	}
	for i, op := range ops {
		m := msgs[3+i]
		if string(m.Key) != string(op.Key) || (m.Value == nil) != (op.Kind == OpDelete) ||
			m.Append != (op.Kind == OpAppend) || string(m.Value) != string(op.Value) {
			t.Fatalf("changelog record %d is %q=%q append=%v, want op %q=%q kind %d", 3+i, m.Key, m.Value, m.Append, op.Key, op.Value, op.Kind)
		}
	}
	// A second batch follows the first as its own run.
	cs.WriteMany(ops[:3])
	if got := hwm(); got != int64(6+len(ops)) {
		t.Fatalf("changelog holds %d records after a 3-write batch, want %d", got, 6+len(ops))
	}
	// A restore replays the batches to the same store contents.
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

// TestInstrumentedWriteManyCountsWrites pins the meaning of the write
// histograms' counts: writes, not calls — a batch books one put-ns
// observation per put or append and one delete-ns per delete.
func TestInstrumentedWriteManyCountsWrites(t *testing.T) {
	reg := metrics.NewRegistry()
	s := Instrument(NewStore(), reg, "w")
	ops := writeOps()
	WriteMany(s, ops)
	WriteMany(s, nil)
	snap := reg.Snapshot()
	if got := snap.Histograms["store.w.put-ns"].Count; got != 7 {
		t.Errorf("put-ns count = %d, want 7", got)
	}
	if got := snap.Histograms["store.w.delete-ns"].Count; got != 3 {
		t.Errorf("delete-ns count = %d, want 3", got)
	}
	if s.Len() != 4 {
		t.Errorf("len = %d after the batch, want a, b, c, d", s.Len())
	}
}
