package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	c.Add(42)
	if c.Value() != 8042 {
		t.Fatalf("counter = %d after Add", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("msgs")
	b := r.Counter("msgs")
	if a != b {
		t.Fatal("same name returned different counters")
	}
	a.Add(5)
	r.Gauge("lag").Set(3)
	r.Histogram("lat").Observe(7)
	snap := r.Snapshot()
	if snap.Counters["msgs"] != 5 || snap.Gauges["lag"] != 3 {
		t.Fatalf("snapshot %+v", snap)
	}
	if h := snap.Histograms["lat"]; h.Count != 1 || h.Max != 7 {
		t.Fatalf("histogram snapshot %+v", h)
	}
	if len(snap.Counters) != 1 || len(snap.Gauges) != 1 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot holds metrics never registered: %+v", snap)
	}
}

// TestSnapshotNoNameCollision pins the satellite fix: a counter and a gauge
// (and a histogram) registered under the same name must all survive into the
// snapshot with their own values — the old merged map silently let one
// overwrite the other.
func TestSnapshotNoNameCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(11)
	r.Gauge("x").Set(22)
	r.Histogram("x").Observe(33)
	snap := r.Snapshot()
	if snap.Counters["x"] != 11 {
		t.Errorf("counter x = %d, want 11", snap.Counters["x"])
	}
	if snap.Gauges["x"] != 22 {
		t.Errorf("gauge x = %d, want 22", snap.Gauges["x"])
	}
	if h := snap.Histograms["x"]; h.Count != 1 || h.Max != 33 {
		t.Errorf("histogram x = %+v, want one observation of 33", h)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("msgs").Add(5)
	b.Counter("msgs").Add(7)
	a.Gauge("lag").Set(2)
	b.Gauge("lag").Set(3)
	for i := int64(1); i <= 10; i++ {
		a.Histogram("lat").Observe(i)
		b.Histogram("lat").Observe(i * 100)
	}
	merged := NewSnapshot()
	merged.Merge(a.Snapshot())
	merged.Merge(b.Snapshot())
	if merged.Counters["msgs"] != 12 || merged.Gauges["lag"] != 5 {
		t.Fatalf("merged %+v", merged)
	}
	h := merged.Histograms["lat"]
	if h.Count != 20 || h.Max < 1000 {
		t.Fatalf("merged histogram %+v", h)
	}
}

func TestFormatThroughput(t *testing.T) {
	if got := FormatThroughput(1500); !strings.Contains(got, "1.5k") {
		t.Fatalf("FormatThroughput(1500) = %q", got)
	}
	if got := FormatThroughput(900); !strings.Contains(got, "900") {
		t.Fatalf("FormatThroughput(900) = %q", got)
	}
}
