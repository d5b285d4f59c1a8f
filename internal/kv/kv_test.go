package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
)

func TestStoreGetPutDelete(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put([]byte("a"), []byte("1"))
	v, ok := s.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("Get: %q %v", v, ok)
	}
	s.Put([]byte("a"), []byte("2"))
	v, _ = s.Get([]byte("a"))
	if string(v) != "2" {
		t.Fatalf("overwrite: %q", v)
	}
	if !s.Delete([]byte("a")) {
		t.Fatal("delete of present key returned false")
	}
	if s.Delete([]byte("a")) {
		t.Fatal("delete of absent key returned true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreKeyCopySemantics(t *testing.T) {
	s := NewStore()
	key := []byte("k")
	val := []byte("v")
	s.Put(key, val)
	key[0] = 'X'
	val[0] = 'X'
	if _, ok := s.Get([]byte("k")); !ok {
		t.Fatal("mutating caller's key slice corrupted the store")
	}
	v, _ := s.Get([]byte("k"))
	if string(v) != "v" {
		t.Fatal("mutating caller's value slice corrupted the store")
	}
}

func TestStoreRangeOrdered(t *testing.T) {
	s := NewStore()
	keys := []string{"d", "a", "c", "b", "e"}
	for _, k := range keys {
		s.Put([]byte(k), []byte("v"+k))
	}
	all := s.Range(nil, nil, 0)
	if len(all) != 5 {
		t.Fatalf("full scan returned %d entries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if bytes.Compare(all[i-1].Key, all[i].Key) >= 0 {
			t.Fatal("scan out of order")
		}
	}
	mid := s.Range([]byte("b"), []byte("d"), 0)
	if len(mid) != 2 || string(mid[0].Key) != "b" || string(mid[1].Key) != "c" {
		t.Fatalf("bounded scan: %v", mid)
	}
	limited := s.Range(nil, nil, 3)
	if len(limited) != 3 {
		t.Fatalf("limited scan returned %d", len(limited))
	}
}

func TestPropertyStoreMatchesMap(t *testing.T) {
	type op struct {
		Put bool
		Key uint8
		Val uint16
	}
	f := func(ops []op) bool {
		s := NewStore()
		ref := map[string]string{}
		for _, o := range ops {
			k := []byte(fmt.Sprintf("k%03d", o.Key))
			if o.Put {
				v := []byte(fmt.Sprintf("v%d", o.Val))
				s.Put(k, v)
				ref[string(k)] = string(v)
			} else {
				s.Delete(k)
				delete(ref, string(k))
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		// Full scan must equal the sorted reference map.
		var wantKeys []string
		for k := range ref {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		got := s.Range(nil, nil, 0)
		if len(got) != len(wantKeys) {
			return false
		}
		for i, k := range wantKeys {
			if string(got[i].Key) != k || string(got[i].Value) != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChangelogRestore(t *testing.T) {
	broker := kafka.NewBroker()
	cs, err := NewChangelogStore(NewStore(), broker, "state-cl", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		cs.Put([]byte(fmt.Sprintf("k%02d", i%10)), []byte(fmt.Sprintf("v%d", i)))
	}
	cs.Delete([]byte("k03"))

	// Simulate failure: brand-new store restored from the changelog.
	restored, err := NewChangelogStore(NewStore(), broker, "state-cl", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 9 {
		t.Fatalf("restored %d keys, want 9", restored.Len())
	}
	v, ok := restored.Get([]byte("k05"))
	if !ok || string(v) != "v45" {
		t.Fatalf("restored k05 = %q %v", v, ok)
	}
	if _, ok := restored.Get([]byte("k03")); ok {
		t.Fatal("tombstoned key resurrected by restore")
	}
}

func TestChangelogRestoreAfterCompaction(t *testing.T) {
	broker := kafka.NewBroker()
	cs, err := NewChangelogStore(NewStore(), broker, "cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		cs.Put([]byte(fmt.Sprintf("k%02d", i%25)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := broker.Compact("cl"); err != nil {
		t.Fatal(err)
	}
	restored, err := NewChangelogStore(NewStore(), broker, "cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 25 {
		t.Fatalf("restored %d keys, want 25", restored.Len())
	}
	for i := 0; i < 25; i++ {
		v, ok := restored.Get([]byte(fmt.Sprintf("k%02d", i)))
		want := fmt.Sprintf("v%d", 1975+i)
		if !ok || string(v) != want {
			t.Fatalf("k%02d restored to %q, want %q", i, v, want)
		}
	}
}

// TestChangelogRestoreCompactedSparseOffsets drives overwrites and deletes
// through small segments, forces compaction (leaving offset gaps up to the
// active segment), and checks Restore replays the sparse log exactly.
func TestChangelogRestoreCompactedSparseOffsets(t *testing.T) {
	broker := kafka.NewBroker()
	inner := NewStore()
	cs, err := NewChangelogStore(inner, broker, "sparse-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ref := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%02d", rng.Intn(20))
		if rng.Intn(6) == 0 {
			cs.Delete([]byte(k))
			delete(ref, k)
		} else {
			v := fmt.Sprintf("v%d", i)
			cs.Put([]byte(k), []byte(v))
			ref[k] = v
		}
	}
	if err := broker.Compact("sparse-cl"); err != nil {
		t.Fatal(err)
	}
	tp := kafka.TopicPartition{Topic: "sparse-cl", Partition: 0}
	hwm, _ := broker.HighWatermark(tp)
	if hwm != 3000 {
		t.Fatalf("hwm %d, want 3000 (offsets preserved across compaction)", hwm)
	}

	restored, err := NewChangelogStore(NewStore(), broker, "sparse-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != len(ref) {
		t.Fatalf("restored %d keys, want %d", restored.Len(), len(ref))
	}
	for k, want := range ref {
		v, ok := restored.Get([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("restored %s = %q %v, want %q", k, v, ok, want)
		}
	}
	// The restored store must byte-equal the survivor, not just size-match.
	a, b := inner.Range(nil, nil, 0), restored.Range(nil, nil, 0)
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("entry %d diverges: %q vs %q", i, a[i].Key, b[i].Key)
		}
	}
}

// nopStore isolates the changelog mirroring path from the store's own
// allocations for the arena allocation pin.
type nopStore struct{}

func (nopStore) Get([]byte) ([]byte, bool)        { return nil, false }
func (nopStore) Put(_, _ []byte)                  {}
func (nopStore) Delete([]byte) bool               { return false }
func (nopStore) Range(_, _ []byte, _ int) []Entry { return nil }
func (nopStore) Len() int                         { return 0 }

// TestChangelogBufferAllocs pins the arena design: mirroring a write costs
// amortized under one allocation on the changelog side, versus the two
// defensive copies a per-write copy of key and value would make.
func TestChangelogBufferAllocs(t *testing.T) {
	broker := kafka.NewBroker()
	cs, err := NewChangelogStore(nopStore{}, broker, "alloc-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("alloc-key")
	val := []byte("alloc-value-of-reasonable-size")
	avg := testing.AllocsPerRun(400, func() {
		cs.Put(key, val)
	})
	if avg >= 1 {
		t.Fatalf("changelog mirror path averages %.2f allocs/op, want < 1", avg)
	}
}

// TestDetachChangelog hands a restored changelog store's state to a caller
// through the instrumented stack a task sees: the store underneath is empty
// afterwards, no tombstone reached the topic, and what the caller writes
// through the returned changelog restores as usual. A store without a
// changelog detaches none and keeps its keys.
func TestDetachChangelog(t *testing.T) {
	broker := kafka.NewBroker()
	cs, err := NewChangelogStore(NewStore(), broker, "detach-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs.Put([]byte("a"), []byte("1"))
	cs.Put([]byte("b"), []byte("2"))
	s := Instrument(cs, metrics.NewRegistry(), "detach")
	log := DetachChangelog(s)
	if log == nil || s.Len() != 0 {
		t.Fatalf("detached %v, %d keys left in the store", log, s.Len())
	}
	log.WriteMany([]WriteOp{{Key: []byte("a"), Kind: OpDelete}, {Key: []byte("c"), Value: []byte("3")}})
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	if hwm, err := broker.HighWatermark(kafka.TopicPartition{Topic: "detach-cl"}); err != nil || hwm != 4 {
		t.Fatalf("changelog holds %d records (%v), want the 2 puts and the 2 writes after the detach", hwm, err)
	}
	restored, err := NewChangelogStore(NewStore(), broker, "detach-cl", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	if b, ok := restored.Get([]byte("b")); restored.Len() != 2 || !ok || string(b) != "2" {
		t.Fatalf("restored %d keys, b = %q", restored.Len(), b)
	}

	plain := NewStore()
	plain.Put([]byte("a"), []byte("1"))
	if log := DetachChangelog(Instrument(plain, metrics.NewRegistry(), "plain")); log != nil || plain.Len() != 1 {
		t.Fatalf("plain store detached %v, %d keys left", log, plain.Len())
	}
}
