package kv

import (
	"time"

	"samzasql/internal/metrics"
	"samzasql/internal/trace"
)

// instrumentedStore wraps a Store with per-operation latency histograms.
// The handles are bound once at construction, so each operation costs two
// monotonic clock reads and one lock-free Observe on top of the wrapped
// store — no allocations, no registry lookups on the access path. The
// paper's §5.1 observation that window/join throughput is KV-access bound
// is exactly what these histograms make visible.
//
// When a tracing cursor is bound (BindTrace) and the current message is
// sampled, each operation additionally records a trace leaf span from the
// same timing — the store/changelog leg of the message's span tree. The
// stage strings are precomputed here so the sampled path allocates nothing.
type instrumentedStore struct {
	raw                      Store
	getLat, putLat, rangeLat *metrics.Histogram
	deleteLat                *metrics.Histogram

	act *trace.Active
	getStage, putStage, rangeStage,
	deleteStage, getManyStage, writeManyStage string
}

// Instrument wraps s so that get/put/delete/range latencies are recorded
// into reg under "store.<name>.<op>-ns". Wrapping an already-instrumented
// store layers a second set of timings; callers wrap once, at the point the
// store is handed to tasks.
func Instrument(s Store, reg *metrics.Registry, name string) Store {
	prefix := "store." + name + "."
	return &instrumentedStore{
		raw:            s,
		getLat:         reg.Histogram(prefix + "get-ns"),
		putLat:         reg.Histogram(prefix + "put-ns"),
		rangeLat:       reg.Histogram(prefix + "range-ns"),
		deleteLat:      reg.Histogram(prefix + "delete-ns"),
		getStage:       prefix + "get",
		putStage:       prefix + "put",
		rangeStage:     prefix + "range",
		deleteStage:    prefix + "delete",
		getManyStage:   prefix + "get-many",
		writeManyStage: prefix + "write-many",
	}
}

// BindTrace attaches a tracing cursor to an instrumented store so its
// operations record trace leaf spans for sampled messages. A no-op on
// stores that are not the Instrument wrapper; safe to call before the
// store serves traffic (binding is not synchronized).
func BindTrace(s Store, act *trace.Active) {
	if is, ok := s.(*instrumentedStore); ok {
		is.act = act
	}
}

func (s *instrumentedStore) Get(key []byte) ([]byte, bool) {
	start := time.Now()
	v, ok := s.raw.Get(key)
	d := time.Since(start).Nanoseconds()
	s.getLat.Observe(d)
	if s.act.Sampled() {
		s.act.Leaf(s.getStage, start.UnixNano(), d)
	}
	return v, ok
}

// GetMany times the whole batch as one observation — the point of the
// batched path is exactly that the per-operation overhead (clock reads,
// histogram update, trace leaf) is paid once per block, so instrumenting
// it per key would reintroduce the tax being measured away.
//
//samzasql:hotpath
func (s *instrumentedStore) GetMany(keys [][]byte, vals [][]byte, oks []bool) {
	start := time.Now()
	GetMany(s.raw, keys, vals, oks)
	d := time.Since(start).Nanoseconds()
	s.getLat.Observe(d)
	if s.act.Sampled() {
		s.act.Leaf(s.getManyStage, start.UnixNano(), d)
	}
}

func (s *instrumentedStore) Put(key, value []byte) {
	start := time.Now()
	s.raw.Put(key, value)
	d := time.Since(start).Nanoseconds()
	s.putLat.Observe(d)
	if s.act.Sampled() {
		s.act.Leaf(s.putStage, start.UnixNano(), d)
	}
}

// WriteMany times the whole batch once and books an equal share of it to
// every contained write — one put-ns observation per Put, one delete-ns per
// Delete — so the histograms' counts keep meaning writes, not calls.
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
		if ops[i].Delete {
			deletes++
		}
	}
	share := d / int64(len(ops))
	s.putLat.ObserveN(share, int64(len(ops))-deletes)
	s.deleteLat.ObserveN(share, deletes)
	if s.act.Sampled() {
		s.act.Leaf(s.writeManyStage, start.UnixNano(), d)
	}
}

func (s *instrumentedStore) Delete(key []byte) bool {
	start := time.Now()
	ok := s.raw.Delete(key)
	d := time.Since(start).Nanoseconds()
	s.deleteLat.Observe(d)
	if s.act.Sampled() {
		s.act.Leaf(s.deleteStage, start.UnixNano(), d)
	}
	return ok
}

func (s *instrumentedStore) Range(start, end []byte, limit int) []Entry {
	t0 := time.Now()
	out := s.raw.Range(start, end, limit)
	d := time.Since(t0).Nanoseconds()
	s.rangeLat.Observe(d)
	if s.act.Sampled() {
		s.act.Leaf(s.rangeStage, t0.UnixNano(), d)
	}
	return out
}

func (s *instrumentedStore) Len() int { return s.raw.Len() }

func (s *instrumentedStore) Stats() (reads, writes int64) { return s.raw.Stats() }
