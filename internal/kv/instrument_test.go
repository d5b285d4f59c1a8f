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
