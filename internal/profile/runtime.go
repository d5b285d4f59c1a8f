// Package profile is the runtime/metrics collector: it reads goroutine
// count, live heap, GC pauses and scheduler latencies into an ordinary typed
// registry so they ride __metrics and the monitor store like any other
// series (\top reads these gauges). CPU and heap profiles of the process come
// from the stdlib /debug/pprof/ handlers on the introspection server.
package profile

import (
	"math"
	rm "runtime/metrics"

	"samzasql/internal/metrics"
)

// Runtime metric names as they appear in registry snapshots (and therefore
// on __metrics and in the monitor store).
const (
	// RuntimeGoroutines is the live goroutine count gauge.
	RuntimeGoroutines = "runtime.goroutines"
	// RuntimeHeapLive is the live heap object bytes gauge.
	RuntimeHeapLive = "runtime.heap-live-bytes"
	// RuntimeGCCycles is the completed GC cycle counter.
	RuntimeGCCycles = "runtime.gc-cycles"
	// RuntimeGCPause is the GC stop-the-world pause histogram (ns).
	RuntimeGCPause = "runtime.gc-pause-ns"
	// RuntimeGCLastPause is the most recent observed GC pause gauge (ns).
	RuntimeGCLastPause = "runtime.gc-last-pause-ns"
	// RuntimeSchedLatency is the scheduler ready-to-run latency histogram (ns).
	RuntimeSchedLatency = "runtime.sched-latency-ns"
)

// histReplayCap bounds how many Observe calls one Refresh spends replaying
// a runtime histogram's new bucket counts into the registry histogram.
// Scheduler latencies record one event per goroutine wakeup, so a busy
// interval can add hundreds of thousands of counts; above the cap the
// replay scales counts down proportionally, preserving the distribution's
// shape at bounded cost.
const histReplayCap = 1024

// Collector reads the runtime/metrics samples the monitor cares about —
// goroutine count, live heap, GC pauses, scheduler latencies — into an
// ordinary typed registry, so runtime telemetry rides the existing
// __metrics stream and monitor store with no new plumbing. Call Refresh
// from the metrics reporter's refresh hook (it runs once per snapshot
// publish, never on the message hot path).
type Collector struct {
	samples []rm.Sample

	goroutines  *metrics.Gauge
	heapLive    *metrics.Gauge
	gcCycles    *metrics.Counter
	gcLastPause *metrics.Gauge
	gcPause     *metrics.Histogram
	schedLat    *metrics.Histogram

	prevGCCycles int64
	prevPause    []uint64
	prevSched    []uint64
}

// Indices into Collector.samples, fixed at construction.
const (
	sampleGoroutines = iota
	sampleHeapLive
	sampleGCCycles
	sampleGCPause
	sampleSchedLat
	sampleCount
)

// NewCollector binds the runtime series into reg. The gauges and
// histograms are pre-bound here, so Refresh does no registry lookups.
func NewCollector(reg *metrics.Registry) *Collector {
	c := &Collector{
		samples:     make([]rm.Sample, sampleCount),
		goroutines:  reg.Gauge(RuntimeGoroutines),
		heapLive:    reg.Gauge(RuntimeHeapLive),
		gcCycles:    reg.Counter(RuntimeGCCycles),
		gcLastPause: reg.Gauge(RuntimeGCLastPause),
		gcPause:     reg.Histogram(RuntimeGCPause),
		schedLat:    reg.Histogram(RuntimeSchedLatency),
	}
	c.samples[sampleGoroutines].Name = "/sched/goroutines:goroutines"
	c.samples[sampleHeapLive].Name = "/memory/classes/heap/objects:bytes"
	c.samples[sampleGCCycles].Name = "/gc/cycles/total:gc-cycles"
	c.samples[sampleGCPause].Name = "/gc/pauses:seconds"
	c.samples[sampleSchedLat].Name = "/sched/latencies:seconds"
	return c
}

// Refresh reads the runtime samples and folds them into the registry:
// gauges set directly, counter advanced by the cycle delta, histograms fed
// the new bucket counts since the previous refresh (replayed at bucket
// midpoints, capped and scaled by histReplayCap).
func (c *Collector) Refresh() {
	rm.Read(c.samples)
	if v, ok := sampleUint(c.samples[sampleGoroutines]); ok {
		c.goroutines.Set(int64(v))
	}
	if v, ok := sampleUint(c.samples[sampleHeapLive]); ok {
		c.heapLive.Set(int64(v))
	}
	if v, ok := sampleUint(c.samples[sampleGCCycles]); ok {
		if d := int64(v) - c.prevGCCycles; d > 0 {
			c.gcCycles.Add(d)
		}
		c.prevGCCycles = int64(v)
	}
	if h := sampleHist(c.samples[sampleGCPause]); h != nil {
		if last := c.replayHist(h, &c.prevPause, c.gcPause); last > 0 {
			c.gcLastPause.Set(last)
		}
	}
	if h := sampleHist(c.samples[sampleSchedLat]); h != nil {
		c.replayHist(h, &c.prevSched, c.schedLat)
	}
}

// replayHist feeds the new counts of a cumulative runtime histogram into
// the registry histogram and returns the largest bucket midpoint (ns) that
// gained counts this refresh (0 when nothing changed). prev holds the
// previous counts and is updated in place (re-allocated only when the
// runtime changes its bucket layout).
func (c *Collector) replayHist(h *rm.Float64Histogram, prev *[]uint64, dst *metrics.Histogram) int64 {
	if len(*prev) != len(h.Counts) {
		*prev = make([]uint64, len(h.Counts))
	}
	var total uint64
	for i, n := range h.Counts {
		if n > (*prev)[i] {
			total += n - (*prev)[i]
		}
	}
	if total == 0 {
		copy(*prev, h.Counts)
		return 0
	}
	// Scale so one refresh replays at most histReplayCap observations.
	scale := 1.0
	if total > histReplayCap {
		scale = float64(histReplayCap) / float64(total)
	}
	var lastNs int64
	for i, n := range h.Counts {
		d := int64(n) - int64((*prev)[i])
		(*prev)[i] = n
		if d <= 0 {
			continue
		}
		ns := bucketMidNs(h.Buckets, i)
		if ns > lastNs {
			lastNs = ns
		}
		reps := int(math.Round(float64(d) * scale))
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			dst.Observe(ns)
		}
	}
	return lastNs
}

// bucketMidNs converts runtime histogram bucket i's midpoint from seconds
// to nanoseconds, using the finite edge when a boundary is ±Inf.
func bucketMidNs(buckets []float64, i int) int64 {
	if i+1 >= len(buckets) {
		return 0
	}
	lo, hi := buckets[i], buckets[i+1]
	if math.IsInf(lo, -1) {
		lo = 0
	}
	if math.IsInf(hi, 1) {
		hi = lo
	}
	mid := (lo + hi) / 2
	if mid < 0 {
		mid = 0
	}
	return int64(mid * 1e9)
}

// sampleUint extracts an integer sample value.
func sampleUint(s rm.Sample) (uint64, bool) {
	if s.Value.Kind() != rm.KindUint64 {
		return 0, false
	}
	return s.Value.Uint64(), true
}

// sampleHist extracts a histogram sample value.
func sampleHist(s rm.Sample) *rm.Float64Histogram {
	if s.Value.Kind() != rm.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}
