// Package metrics provides the counters, gauges, histograms and timers
// Samza containers expose, the typed registry snapshots the metrics
// reporter publishes, and the throughput formatting of the figures in §5.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry groups named metrics for one container or task. It is safe for
// concurrent use by every task goroutine in a container: lookups of
// existing metrics take only a read lock, so hot paths that have not
// hoisted their counters contend only on the atomics inside them.
//
// Counters, gauges and histograms live in separate namespaces: registering
// a counter and a gauge under the same name yields two distinct metrics,
// and Snapshot reports them in separate typed maps so they can never
// silently overwrite each other.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Timer returns a timer view over the named histogram (shared namespace:
// Timer("x") and Histogram("x") record into the same distribution, in
// nanoseconds).
func (r *Registry) Timer(name string) Timer {
	return Timer{h: r.Histogram(name)}
}

// Snapshot is a typed point-in-time copy of a registry (or of several
// merged registries). Counters, gauges and histograms are kept in separate
// maps, so metrics of different kinds sharing a name can never collide.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// NewSnapshot returns an empty snapshot ready to be merged into.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
}

// Merge folds other into s: counters and gauges add, histogram summaries
// combine (counts/sums add, max takes max, percentiles count-weighted —
// see mergeHistogramSnapshots).
func (s Snapshot) Merge(other Snapshot) {
	for n, v := range other.Counters {
		s.Counters[n] += v
	}
	for n, v := range other.Gauges {
		s.Gauges[n] += v
	}
	for n, h := range other.Histograms {
		s.Histograms[n] = mergeHistogramSnapshots(s.Histograms[n], h)
	}
}

// Snapshot returns the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		out.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		out.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		out.Histograms[n] = h.Snapshot()
	}
	return out
}

// WriteText renders a snapshot in the introspection server's stable text
// format: one line per metric, sorted within each kind.
//
//	counter messages-processed 100000
//	gauge kafka.lag.orders.0 12
//	histogram task.Partition-0.process-ns count=41 p50=1834 p95=3702 p99=4911 max=51023
func (s Snapshot) WriteText(w io.Writer) {
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "counter %s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "gauge %s %d\n", n, s.Gauges[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		fmt.Fprintf(w, "histogram %s count=%d p50=%d p95=%d p99=%d max=%d\n",
			n, h.Count, h.P50, h.P95, h.P99, h.Max)
	}
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FormatThroughput renders msgs/sec in the unit style used by the paper's
// figures (k msgs/sec above 1000).
func FormatThroughput(perSec float64) string {
	if perSec >= 1000 {
		return fmt.Sprintf("%.1fk msg/s", perSec/1000)
	}
	return fmt.Sprintf("%.0f msg/s", perSec)
}
