package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// maxRelErr is the layout's worst-case relative error bound (1/subBucketCount)
// with headroom for the rank falling at a bucket edge.
const maxRelErr = 2.0 / subBucketCount

func TestBucketRoundTrip(t *testing.T) {
	cases := []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1_000_000, 1 << 40, 1<<63 - 1}
	for _, v := range cases {
		idx := bucketIndex(v)
		upper := bucketUpperBound(idx)
		if upper < v {
			t.Errorf("value %d: bucket %d upper bound %d below value", v, idx, upper)
		}
		if v > 0 && float64(upper-v) > float64(v)*maxRelErr+1 {
			t.Errorf("value %d: upper bound %d exceeds relative error bound", v, upper)
		}
		if idx < 0 || idx >= numBuckets {
			t.Errorf("value %d: bucket %d out of range", v, idx)
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race this doubles as the data-race check for the lock-free path.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Observe(rng.Int63n(1_000_000))
			}
		}(int64(g))
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", snap.Count, goroutines*perG)
	}
	if snap.Max >= 1_000_000 || snap.P50 <= 0 || snap.P50 > snap.P95 || snap.P95 > snap.P99 {
		t.Fatalf("implausible snapshot %+v", snap)
	}
}

// TestHistogramPercentileAccuracy checks p50/p95/p99 against a reference
// sort on fixed inputs across several distributions; every reported
// percentile must be within the bucket layout's relative error of the exact
// order statistic.
func TestHistogramPercentileAccuracy(t *testing.T) {
	distributions := map[string]func(rng *rand.Rand) int64{
		"uniform":     func(rng *rand.Rand) int64 { return rng.Int63n(100_000) },
		"exponential": func(rng *rand.Rand) int64 { return int64(rng.ExpFloat64() * 10_000) },
		"bimodal": func(rng *rand.Rand) int64 {
			if rng.Intn(10) == 0 {
				return 500_000 + rng.Int63n(1000)
			}
			return 1000 + rng.Int63n(100)
		},
		"constant": func(*rand.Rand) int64 { return 4242 },
	}
	for name, gen := range distributions {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			const n = 20_000
			var h Histogram
			values := make([]int64, n)
			for i := range values {
				v := gen(rng)
				values[i] = v
				h.Observe(v)
			}
			sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
			exact := func(q float64) int64 {
				rank := int(q * n)
				if rank < 1 {
					rank = 1
				}
				return values[rank-1]
			}
			snap := h.Snapshot()
			for _, c := range []struct {
				q    float64
				got  int64
				name string
			}{
				{0.50, snap.P50, "p50"},
				{0.95, snap.P95, "p95"},
				{0.99, snap.P99, "p99"},
			} {
				want := exact(c.q)
				tol := float64(want)*maxRelErr + 1
				if diff := float64(c.got - want); diff > tol || diff < -tol {
					t.Errorf("%s = %d, reference sort says %d (tolerance %.0f)", c.name, c.got, want, tol)
				}
			}
			if snap.Max != values[n-1] {
				t.Errorf("max = %d, want %d", snap.Max, values[n-1])
			}
		})
	}
}

// TestObserveZeroAllocs pins the hot-path contract: Histogram.Observe and
// the Timer start/stop pair allocate nothing, so instrumentation can sit on
// the per-message task loop without breaking the 0 allocs/op regression
// benchmarks.
func TestObserveZeroAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); allocs != 0 {
		t.Errorf("Histogram.Observe: %.1f allocs/op, want 0", allocs)
	}
	timer := r.Timer("proc")
	if allocs := testing.AllocsPerRun(1000, func() {
		start := timer.Start()
		timer.Stop(start)
	}); allocs != 0 {
		t.Errorf("Timer start/stop: %.1f allocs/op, want 0", allocs)
	}
}

// TestQuantileEdgeCases pins the documented Quantile contract: empty
// histograms answer 0 at every q, single-bucket distributions answer the
// one recorded bucket at every q, and no quantile ever exceeds Max.
func TestQuantileEdgeCases(t *testing.T) {
	qs := []float64{-1, 0, 0.5, 0.95, 0.99, 1, 2}

	t.Run("empty", func(t *testing.T) {
		var h Histogram
		for _, q := range qs {
			if got := h.Snapshot().Quantile(q); got != 0 {
				t.Errorf("empty histogram Quantile(%v) = %d, want 0", q, got)
			}
		}
		snap := h.Snapshot()
		if snap.P50 != 0 || snap.P95 != 0 || snap.P99 != 0 || snap.Max != 0 {
			t.Errorf("empty snapshot has nonzero percentiles: %+v", snap)
		}
	})

	t.Run("single-bucket", func(t *testing.T) {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Observe(4242) // one bucket; Max clamps the bucket upper bound
		}
		snap := h.Snapshot()
		if len(snap.Buckets) != 1 {
			t.Fatalf("expected 1 sparse bucket, got %d", len(snap.Buckets))
		}
		for _, q := range qs {
			if got := snap.Quantile(q); got != snap.Max {
				t.Errorf("single-bucket Quantile(%v) = %d, want Max=%d", q, got, snap.Max)
			}
		}
		if snap.P50 != snap.P99 {
			t.Errorf("single-bucket snapshot p50=%d != p99=%d", snap.P50, snap.P99)
		}
	})

	t.Run("clamped-to-max", func(t *testing.T) {
		var h Histogram
		h.Observe(1000)
		h.Observe(999_999)
		snap := h.Snapshot()
		for _, q := range qs {
			if got := snap.Quantile(q); got > snap.Max {
				t.Errorf("Quantile(%v) = %d exceeds Max=%d", q, got, snap.Max)
			}
		}
		if got := snap.Quantile(0); float64(got) > 1000*(1+maxRelErr)+1 {
			t.Errorf("Quantile(0) = %d, want the smallest bucket (~1000)", got)
		}
	})
}

// TestHistogramSnapshotExactMerge checks that merging per-container
// snapshots through the sparse buckets reproduces exactly the percentiles a
// single histogram over the union of observations reports.
func TestHistogramSnapshotExactMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, union Histogram
	for i := 0; i < 10_000; i++ {
		v := rng.Int63n(1_000_000)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		union.Observe(v)
	}
	merged := MergeHistograms(a.Snapshot(), b.Snapshot())
	want := union.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum || merged.Max != want.Max {
		t.Fatalf("merged count/sum/max = %d/%d/%d, union says %d/%d/%d",
			merged.Count, merged.Sum, merged.Max, want.Count, want.Sum, want.Max)
	}
	if merged.P50 != want.P50 || merged.P95 != want.P95 || merged.P99 != want.P99 {
		t.Errorf("merged percentiles %d/%d/%d differ from union %d/%d/%d",
			merged.P50, merged.P95, merged.P99, want.P50, want.P95, want.P99)
	}
	if len(merged.Buckets) == 0 {
		t.Error("merged snapshot lost its sparse buckets")
	}
	// Merging with an empty side is the identity.
	if got := MergeHistograms(merged, HistogramSnapshot{}); got.Count != merged.Count || got.P99 != merged.P99 {
		t.Errorf("merge with empty changed the snapshot: %+v", got)
	}
}

// TestHistogramSnapshotDeltaSince checks the windowed-difference path the
// monitor uses: later minus earlier recovers exactly the observations made
// in between, and a shrinking histogram (container restart) falls back to
// the later snapshot instead of going negative.
func TestHistogramSnapshotDeltaSince(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h, windowOnly Histogram
	for i := 0; i < 5000; i++ {
		h.Observe(rng.Int63n(100_000))
	}
	earlier := h.Snapshot()
	for i := 0; i < 5000; i++ {
		v := 500_000 + rng.Int63n(100_000) // shifted so the window is distinguishable
		h.Observe(v)
		windowOnly.Observe(v)
	}
	later := h.Snapshot()
	delta := later.DeltaSince(earlier)
	want := windowOnly.Snapshot()
	if delta.Count != want.Count || delta.Sum != want.Sum {
		t.Fatalf("delta count/sum = %d/%d, want %d/%d", delta.Count, delta.Sum, want.Count, want.Sum)
	}
	if delta.P50 != want.P50 || delta.P99 != want.P99 {
		t.Errorf("delta percentiles %d/%d, want %d/%d", delta.P50, delta.P99, want.P50, want.P99)
	}

	// Restart: the "later" snapshot has fewer observations than "earlier".
	var fresh Histogram
	fresh.Observe(1)
	restarted := fresh.Snapshot()
	if got := restarted.DeltaSince(earlier); got.Count != restarted.Count {
		t.Errorf("reset delta = %+v, want the later snapshot unchanged", got)
	}
	// Empty earlier is the identity.
	if got := later.DeltaSince(HistogramSnapshot{}); got.Count != later.Count {
		t.Errorf("delta since empty = %+v, want later unchanged", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// TestObserveNMatchesRepeatedObserve pins the batched form: n observations
// of one value are indistinguishable from n Observe calls, and a
// non-positive n records nothing.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	var batched, looped Histogram
	for _, c := range []struct{ v, n int64 }{{120, 5}, {-3, 2}, {1 << 20, 1}, {77, 0}, {77, -4}} {
		batched.ObserveN(c.v, c.n)
		for i := int64(0); i < c.n; i++ {
			looped.Observe(c.v)
		}
	}
	if got, want := batched.Snapshot(), looped.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ObserveN snapshot %+v, repeated Observe %+v", got, want)
	}
}
