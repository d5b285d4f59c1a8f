package kv

import (
	"time"

	"samzasql/internal/metrics"
)

// instrumentedStore wraps a Store with per-operation latency histograms.
// The handles are bound once at construction, so each operation costs two
// monotonic clock reads and one lock-free Observe on top of the wrapped
// store — no allocations, no registry lookups on the access path. The
// paper's §5.1 observation that window/join throughput is KV-access bound
// is exactly what these histograms make visible.
type instrumentedStore struct {
	raw                      Store
	getLat, putLat, rangeLat *metrics.Histogram
	deleteLat                *metrics.Histogram
}

// Instrument wraps s so that get/put/delete/range latencies are recorded
// into reg under "store.<name>.<op>-ns". Wrapping an already-instrumented
// store layers a second set of timings; callers wrap once, at the point the
// store is handed to tasks.
func Instrument(s Store, reg *metrics.Registry, name string) Store {
	prefix := "store." + name + "."
	return &instrumentedStore{
		raw:       s,
		getLat:    reg.Histogram(prefix + "get-ns"),
		putLat:    reg.Histogram(prefix + "put-ns"),
		rangeLat:  reg.Histogram(prefix + "range-ns"),
		deleteLat: reg.Histogram(prefix + "delete-ns"),
	}
}

func (s *instrumentedStore) Get(key []byte) ([]byte, bool) {
	start := time.Now()
	v, ok := s.raw.Get(key)
	s.getLat.Observe(time.Since(start).Nanoseconds())
	return v, ok
}

// GetMany times the whole batch once — the point of the batched path is
// exactly that the per-operation overhead (clock reads, histogram update)
// is paid once per block — and books an equal share of it to every key, as
// WriteMany does for writes, so the get-ns count keeps meaning keys read,
// not calls.
//
//samzasql:hotpath
func (s *instrumentedStore) GetMany(keys [][]byte, vals [][]byte, oks []bool) {
	if len(keys) == 0 {
		return
	}
	start := time.Now()
	GetMany(s.raw, keys, vals, oks)
	d := time.Since(start).Nanoseconds()
	s.getLat.ObserveN(d/int64(len(keys)), int64(len(keys)))
}

func (s *instrumentedStore) Put(key, value []byte) {
	start := time.Now()
	s.raw.Put(key, value)
	s.putLat.Observe(time.Since(start).Nanoseconds())
}

// WriteMany times the whole batch once and books an equal share of it to
// every contained write — one put-ns observation per put or append, one
// delete-ns per delete — so the histograms' counts keep meaning writes, not
// calls.
//
//samzasql:hotpath
func (s *instrumentedStore) WriteMany(ops []WriteOp) {
	if len(ops) == 0 {
		return
	}
	start := time.Now()
	WriteMany(s.raw, ops)
	d := time.Since(start).Nanoseconds()
	var deletes int64
	for i := range ops {
		if ops[i].Kind == OpDelete {
			deletes++
		}
	}
	share := d / int64(len(ops))
	s.putLat.ObserveN(share, int64(len(ops))-deletes)
	s.deleteLat.ObserveN(share, deletes)
}

func (s *instrumentedStore) Delete(key []byte) bool {
	start := time.Now()
	ok := s.raw.Delete(key)
	s.deleteLat.Observe(time.Since(start).Nanoseconds())
	return ok
}

func (s *instrumentedStore) Range(start, end []byte, limit int) []Entry {
	t0 := time.Now()
	out := s.raw.Range(start, end, limit)
	s.rangeLat.Observe(time.Since(t0).Nanoseconds())
	return out
}

func (s *instrumentedStore) Len() int { return s.raw.Len() }

// detachChangelog forwards DetachChangelog to the wrapped store.
func (s *instrumentedStore) detachChangelog() *Changelog { return DetachChangelog(s.raw) }
