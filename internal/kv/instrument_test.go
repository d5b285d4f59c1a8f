package kv

import (
	"testing"

	"samzasql/internal/metrics"
)

func TestInstrumentedStore(t *testing.T) {
	reg := metrics.NewRegistry()
	s := Instrument(NewStore(), reg, "join")
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	if v, ok := s.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	if _, ok := s.Get([]byte("zz")); ok {
		t.Fatal("get zz should miss")
	}
	if got := len(s.Range(nil, nil, 0)); got != 2 {
		t.Fatalf("range returned %d entries", got)
	}
	if !s.Delete([]byte("a")) {
		t.Fatal("delete a should report present")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"store.join.get-ns":    2,
		"store.join.put-ns":    2,
		"store.join.range-ns":  1,
		"store.join.delete-ns": 1,
	} {
		if got := snap.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}

// TestInstrumentedGetManyCountsKeys pins that a batched read of k keys
// books k get-ns observations, one per key, hits and misses alike.
func TestInstrumentedGetManyCountsKeys(t *testing.T) {
	reg := metrics.NewRegistry()
	s := Instrument(NewStore(), reg, "join")
	s.Put([]byte("a"), []byte("1"))
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("a"), []byte("c"), []byte("d")}
	vals, oks := make([][]byte, len(keys)), make([]bool, len(keys))
	count := func() int64 { return reg.Snapshot().Histograms["store.join.get-ns"].Count }
	before := count()
	GetMany(s, keys, vals, oks)
	if got := count() - before; got != int64(len(keys)) {
		t.Fatalf("GetMany of %d keys raised the get-ns count by %d", len(keys), got)
	}
	if !oks[0] || string(vals[0]) != "1" || oks[1] || !oks[2] {
		t.Fatalf("GetMany returned %q %v", vals, oks)
	}
	GetMany(s, nil, nil, nil)
	if got := count() - before; got != int64(len(keys)) {
		t.Fatalf("an empty GetMany changed the get-ns count to %d", got)
	}
}

// TestInstrumentedStoreZeroAllocs pins that the instrumentation layer adds
// no allocations of its own to the store access path (the store's Get
// itself is allocation-free for present keys).
func TestInstrumentedStoreZeroAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	s := Instrument(NewStore(), reg, "x")
	key, val := []byte("k"), []byte("v")
	s.Put(key, val)
	if allocs := testing.AllocsPerRun(1000, func() { s.Get(key) }); allocs != 0 {
		t.Errorf("instrumented Get: %.1f allocs/op, want 0", allocs)
	}
}
