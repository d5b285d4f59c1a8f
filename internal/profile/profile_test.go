package profile

import (
	"runtime"
	rm "runtime/metrics"
	"testing"

	"samzasql/internal/metrics"
)

func TestRuntimeCollector(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	c.Refresh()
	// Force GC activity and allocations between refreshes so the deltas
	// are non-trivial.
	sink := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	runtime.KeepAlive(sink)
	runtime.GC()
	runtime.GC()
	c.Refresh()
	snap := reg.Snapshot()
	if snap.Gauges[RuntimeGoroutines] <= 0 {
		t.Errorf("%s = %d", RuntimeGoroutines, snap.Gauges[RuntimeGoroutines])
	}
	if snap.Gauges[RuntimeHeapLive] <= 0 {
		t.Errorf("%s = %d", RuntimeHeapLive, snap.Gauges[RuntimeHeapLive])
	}
	if snap.Counters[RuntimeGCCycles] <= 0 {
		t.Errorf("%s = %d after two forced GCs", RuntimeGCCycles, snap.Counters[RuntimeGCCycles])
	}
	if h, ok := snap.Histograms[RuntimeGCPause]; !ok || h.Count == 0 {
		t.Errorf("%s histogram empty after forced GCs", RuntimeGCPause)
	}
	if snap.Gauges[RuntimeGCLastPause] <= 0 {
		t.Errorf("%s = %d", RuntimeGCLastPause, snap.Gauges[RuntimeGCLastPause])
	}
}

// TestRuntimeCollectorReplayCap pins the scaling: a huge synthetic count
// delta must not replay more than histReplayCap observations.
func TestRuntimeCollectorReplayCap(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	h := reg.Histogram("replay-test")
	src := &rm.Float64Histogram{
		Counts:  []uint64{1 << 20, 1 << 20},
		Buckets: []float64{0, 1e-6, 1e-3},
	}
	var prev []uint64
	c.replayHist(src, &prev, h)
	got := h.Snapshot().Count
	if got > histReplayCap+2 {
		t.Fatalf("replayed %d observations, cap is %d", got, histReplayCap)
	}
	if got == 0 {
		t.Fatal("replay produced no observations")
	}
}
