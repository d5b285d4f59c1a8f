package monitor

import (
	"sort"
	"strings"
	"sync"
	"time"

	"samzasql/internal/metrics"
)

// Kind is the series type, mirroring the three registry metric kinds.
type Kind uint8

const (
	// KindCounter series hold cumulative monotonic values.
	KindCounter Kind = iota
	// KindGauge series hold point-in-time values.
	KindGauge
	// KindHistogram series hold full histogram snapshots (with sparse
	// buckets, so windows and cross-container merges stay exact).
	KindHistogram
)

// SeriesKey identifies one time series: a metric name as published by one
// container of one job. Container -1 holds runner- or monitor-level series.
type SeriesKey struct {
	Job       string
	Container int
	Name      string
}

// Point is one scalar sample.
type Point struct {
	TimeMillis int64 `json:"t"`
	Value      int64 `json:"v"`
}

// HistPoint is one histogram sample: the full cumulative snapshot at that
// time. Windowed percentiles come from DeltaSince between two HistPoints.
type HistPoint struct {
	TimeMillis int64
	Snap       metrics.HistogramSnapshot
}

// series is one fixed-capacity ring of samples. Only the store's single
// writer mutates it; readers copy out under the store's RLock.
type series struct {
	kind  Kind
	pts   []Point     // scalar ring (counter/gauge)
	hists []HistPoint // histogram ring
	start int         // index of the oldest valid sample
	n     int         // number of valid samples
}

// addPoint writes one scalar sample, overwriting the oldest when full.
func (s *series) addPoint(t, v int64) {
	if s.n < cap(s.pts) {
		s.pts = s.pts[:s.n+1]
		s.pts[(s.start+s.n)%cap(s.pts)] = Point{TimeMillis: t, Value: v}
		s.n++
		return
	}
	s.pts[s.start] = Point{TimeMillis: t, Value: v}
	s.start = (s.start + 1) % cap(s.pts)
}

// addHist writes one histogram sample, overwriting the oldest when full.
func (s *series) addHist(t int64, snap metrics.HistogramSnapshot) {
	if s.n < cap(s.hists) {
		s.hists = s.hists[:s.n+1]
		s.hists[(s.start+s.n)%cap(s.hists)] = HistPoint{TimeMillis: t, Snap: snap}
		s.n++
		return
	}
	s.hists[s.start] = HistPoint{TimeMillis: t, Snap: snap}
	s.start = (s.start + 1) % cap(s.hists)
}

// DefaultCapacity is the per-series sample budget when the monitor config
// does not choose one. At a 100ms snapshot interval it retains ~51s of
// history per metric × container.
const DefaultCapacity = 512

// Store is the bounded in-memory time-series store. Memory is bounded by
// construction: each series is a fixed ring of Capacity samples, and the
// number of series is the number of distinct metric names × containers the
// tailed jobs publish. Ingestion is single-writer (the monitor run loop);
// reads copy out under an RWMutex so HTTP handlers never block ingestion
// for long and never observe a ring mid-rotation.
type Store struct {
	mu       sync.RWMutex
	capacity int
	series   map[SeriesKey]*series
	// closed marks (job, container) pairs whose final snapshot arrived; rule
	// evaluation skips their stale gauges.
	closed map[SeriesKey]bool
}

// NewStore builds a store with the given per-series sample capacity
// (minimum 2 — windowed queries need two edges).
func NewStore(capacity int) *Store {
	if capacity < 2 {
		capacity = 2
	}
	return &Store{
		capacity: capacity,
		series:   map[SeriesKey]*series{},
		closed:   map[SeriesKey]bool{},
	}
}

// Observe ingests one scalar sample. It is the per-sample unit of the
// ingest loop — a snapshot fans out into one Observe per counter and gauge
// — so in steady state (every series already allocated) it must not
// allocate: a ring-slot write plus one map lookup.
//
//samzasql:hotpath
func (st *Store) Observe(k SeriesKey, kind Kind, tMillis, v int64) {
	st.mu.Lock()
	s := st.series[k]
	if s == nil {
		s = &series{kind: kind, pts: make([]Point, 0, st.capacity)}
		st.series[k] = s
	}
	s.addPoint(tMillis, v)
	st.mu.Unlock()
}

// ObserveHist ingests one histogram sample.
func (st *Store) ObserveHist(k SeriesKey, tMillis int64, snap metrics.HistogramSnapshot) {
	st.mu.Lock()
	s := st.series[k]
	if s == nil {
		s = &series{kind: KindHistogram, hists: make([]HistPoint, 0, st.capacity)}
		st.series[k] = s
	}
	s.addHist(tMillis, snap)
	st.mu.Unlock()
}

// IngestSnapshot fans a full registry snapshot out into the per-metric
// series and, when final, closes the (job, container) out.
func (st *Store) IngestSnapshot(job string, container int, tMillis int64, snap metrics.Snapshot, final bool) {
	for name, v := range snap.Counters {
		st.Observe(SeriesKey{Job: job, Container: container, Name: name}, KindCounter, tMillis, v)
	}
	for name, v := range snap.Gauges {
		st.Observe(SeriesKey{Job: job, Container: container, Name: name}, KindGauge, tMillis, v)
	}
	for name, h := range snap.Histograms {
		st.ObserveHist(SeriesKey{Job: job, Container: container, Name: name}, tMillis, h)
	}
	if final {
		st.mu.Lock()
		st.closed[SeriesKey{Job: job, Container: container}] = true
		st.mu.Unlock()
	}
}

// SeriesInfo describes one retained series: its key, kind, and how many
// samples the ring currently holds.
type SeriesInfo struct {
	Key     SeriesKey
	Kind    Kind
	Samples int
}

// Series lists every series, sorted by (job, name, container).
func (st *Store) Series() []SeriesInfo {
	st.mu.RLock()
	out := make([]SeriesInfo, 0, len(st.series))
	for k, s := range st.series {
		out = append(out, SeriesInfo{Key: k, Kind: s.kind, Samples: s.n})
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Container < b.Container
	})
	return out
}

// Jobs returns the distinct job names with at least one series, sorted.
func (st *Store) Jobs() []string {
	st.mu.RLock()
	seen := map[string]bool{}
	for k := range st.series {
		seen[k.Job] = true
	}
	st.mu.RUnlock()
	out := make([]string, 0, len(seen))
	for j := range seen {
		out = append(out, j)
	}
	sort.Strings(out)
	return out
}

// match reports whether a key satisfies the (job, container, name) filter.
// Empty job means every job; container < 0 means every container.
func matchKey(k SeriesKey, job string, container int, name string) bool {
	if name != "" && k.Name != name {
		return false
	}
	if job != "" && k.Job != job {
		return false
	}
	if container >= 0 && k.Container != container {
		return false
	}
	return true
}

// Range returns the scalar samples of every matching series at or after
// fromMillis, as copies keyed by series.
func (st *Store) Range(job string, container int, name string, fromMillis int64) map[SeriesKey][]Point {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := map[SeriesKey][]Point{}
	for k, s := range st.series {
		if s.kind == KindHistogram || !matchKey(k, job, container, name) {
			continue
		}
		var pts []Point
		for i := 0; i < s.n; i++ {
			p := s.pts[(s.start+i)%cap(s.pts)]
			if p.TimeMillis >= fromMillis {
				pts = append(pts, p)
			}
		}
		if len(pts) > 0 {
			out[k] = pts
		}
	}
	return out
}

// Latest returns the newest sample of the series, if any.
func (st *Store) Latest(k SeriesKey) (Point, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.series[k]
	if s == nil || s.n == 0 || s.kind == KindHistogram {
		return Point{}, false
	}
	return s.pts[(s.start+s.n-1)%cap(s.pts)], true
}

// CounterRate returns events/second over the window [fromMillis, now] for
// every matching counter series summed together, guarding against counter
// resets (a container restart re-baselines instead of going negative).
// The second return is the summed absolute delta (events in the window).
func (st *Store) CounterRate(job string, container int, name string, fromMillis int64) (float64, int64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var events int64
	var minT, maxT int64
	for k, s := range st.series {
		if s.kind != KindCounter || !matchKey(k, job, container, name) {
			continue
		}
		// Walk the window accumulating positive increments; a decrease is a
		// restart — the new value counts from zero.
		var prev Point
		havePrev := false
		for i := 0; i < s.n; i++ {
			p := s.pts[(s.start+i)%cap(s.pts)]
			if p.TimeMillis < fromMillis {
				prev, havePrev = p, true
				continue
			}
			if havePrev {
				if d := p.Value - prev.Value; d >= 0 {
					events += d
				} else {
					events += p.Value
				}
			}
			if minT == 0 || p.TimeMillis < minT {
				minT = p.TimeMillis
			}
			if p.TimeMillis > maxT {
				maxT = p.TimeMillis
			}
			prev, havePrev = p, true
		}
	}
	if maxT <= minT {
		return 0, events
	}
	return float64(events) / (float64(maxT-minT) / 1000.0), events
}

// QuantileWindow merges the histogram activity of every matching series
// over the window [fromMillis, now] — per-container DeltaSince between the
// window edges, then an exact cross-container bucket merge — and returns
// the q-quantile of the merged distribution plus its observation count.
// Quantile semantics (empty → 0, single bucket → that bucket) are pinned
// by metrics.HistogramSnapshot.Quantile.
func (st *Store) QuantileWindow(job string, container int, name string, q float64, fromMillis int64) (int64, int64) {
	merged := st.WindowHistogram(job, container, name, fromMillis)
	return merged.Quantile(q), merged.Count
}

// WindowHistogram returns the merged windowed distribution itself.
func (st *Store) WindowHistogram(job string, container int, name string, fromMillis int64) metrics.HistogramSnapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var merged metrics.HistogramSnapshot
	for k, s := range st.series {
		if s.kind != KindHistogram || !matchKey(k, job, container, name) {
			continue
		}
		if s.n == 0 {
			continue
		}
		last := s.hists[(s.start+s.n-1)%cap(s.hists)]
		// Baseline: newest sample older than the window start. Without one
		// the whole cumulative snapshot is the window's best estimate.
		var base metrics.HistogramSnapshot
		for i := s.n - 1; i >= 0; i-- {
			p := s.hists[(s.start+i)%cap(s.hists)]
			if p.TimeMillis < fromMillis {
				base = p.Snap
				break
			}
		}
		merged = metrics.MergeHistograms(merged, last.Snap.DeltaSince(base))
	}
	return merged
}

// GaugeSum returns the sum of the latest values of every matching gauge
// series (per-partition lag gauges sum to job backlog), skipping series
// from closed-out containers.
func (st *Store) GaugeSum(job string, namePrefix string) int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total int64
	for k, s := range st.series {
		if s.kind != KindGauge || s.n == 0 {
			continue
		}
		if job != "" && k.Job != job {
			continue
		}
		if !strings.HasPrefix(k.Name, namePrefix) {
			continue
		}
		if st.closed[SeriesKey{Job: k.Job, Container: k.Container}] {
			continue
		}
		total += s.pts[(s.start+s.n-1)%cap(s.pts)].Value
	}
	return total
}

// GaugeSeries returns, for every matching live gauge series, its windowed
// points — the per-partition lag series rules and sparklines read.
func (st *Store) GaugeSeries(job string, namePrefix string, fromMillis int64) map[SeriesKey][]Point {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := map[SeriesKey][]Point{}
	for k, s := range st.series {
		if s.kind != KindGauge || s.n == 0 {
			continue
		}
		if job != "" && k.Job != job {
			continue
		}
		if !strings.HasPrefix(k.Name, namePrefix) {
			continue
		}
		if st.closed[SeriesKey{Job: k.Job, Container: k.Container}] {
			continue
		}
		var pts []Point
		for i := 0; i < s.n; i++ {
			p := s.pts[(s.start+i)%cap(s.pts)]
			if p.TimeMillis >= fromMillis {
				pts = append(pts, p)
			}
		}
		if len(pts) > 0 {
			out[k] = pts
		}
	}
	return out
}

// MaxWindow returns the maximum scalar value of every matching series over
// the window, or the histogram window max for histogram series.
func (st *Store) MaxWindow(job string, container int, name string, fromMillis int64) int64 {
	st.mu.RLock()
	var max int64
	histSeen := false
	for k, s := range st.series {
		if !matchKey(k, job, container, name) || s.n == 0 {
			continue
		}
		if s.kind == KindHistogram {
			histSeen = true
			continue
		}
		for i := 0; i < s.n; i++ {
			p := s.pts[(s.start+i)%cap(s.pts)]
			if p.TimeMillis >= fromMillis && p.Value > max {
				max = p.Value
			}
		}
	}
	st.mu.RUnlock()
	if histSeen {
		h := st.WindowHistogram(job, container, name, fromMillis)
		if h.Max > max {
			max = h.Max
		}
	}
	return max
}

// Window converts a lookback duration to its fromMillis edge at now.
func Window(now time.Time, lookback time.Duration) int64 {
	return now.Add(-lookback).UnixMilli()
}
