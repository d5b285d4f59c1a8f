package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values below subBucketCount are counted exactly
// (one bucket per value); above that, each power of two is split into
// subBucketCount log-scaled sub-buckets, bounding the relative error of any
// recorded value by 1/subBucketCount. With 8 sub-buckets that is 12.5%
// worst-case — tight enough for latency percentiles while keeping the whole
// histogram a flat 4 KiB array of atomics.
const (
	subBucketBits  = 3
	subBucketCount = 1 << subBucketBits // 8
	// numBuckets covers the full non-negative int64 range: buckets 0..7 are
	// exact, then (63-3) doublings of 8 sub-buckets each.
	numBuckets = (64 - subBucketBits + 1) * subBucketCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBucketCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the top bit, >= subBucketBits
	shift := exp - subBucketBits
	sub := int((u >> uint(shift)) & (subBucketCount - 1))
	return (shift+1)*subBucketCount + sub
}

// bucketUpperBound returns the largest value a bucket holds (inclusive).
func bucketUpperBound(idx int) int64 {
	if idx < subBucketCount {
		return int64(idx)
	}
	block := idx/subBucketCount - 1 // 0-based doubling block
	sub := idx % subBucketCount
	lower := uint64(subBucketCount+sub) << uint(block)
	width := uint64(1) << uint(block)
	upper := lower + width - 1
	if upper > uint64(1<<63-1) {
		upper = 1<<63 - 1
	}
	return int64(upper)
}

// Histogram records a distribution of non-negative int64 observations
// (latencies in nanoseconds, sizes in bytes) into fixed log-scaled buckets.
// Observe is lock-free — one atomic add on the bucket plus count/sum/max
// maintenance — and allocation-free, so it can sit on per-message hot paths.
// Negative observations clamp to zero.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveN records n observations of the same value — a batched operation
// booking its per-item share once instead of looping Observe.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// BucketCount is one non-empty bucket of a histogram snapshot: the flat
// bucket index (see bucketIndex) and its observation count. Snapshots carry
// buckets sparsely — a latency histogram typically fills a few dozen of the
// 496 buckets — which is what lets per-container snapshots travel over the
// metrics stream and still merge exactly on the consumer side.
type BucketCount struct {
	Index int32 `json:"i"`
	Count int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time summary of a histogram. Percentiles
// are computed from the log-scaled buckets, so each carries the layout's
// bounded relative error (at most 1/8 below the true value's bucket bound).
//
// Buckets holds the sparse non-zero bucket counts the percentiles were
// computed from. When present, snapshots merge exactly (bucket-wise) and
// support Quantile at arbitrary q; a snapshot decoded from an older producer
// without buckets still merges via the count-weighted approximation.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	P50     int64         `json:"p50"`
	P95     int64         `json:"p95"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot summarizes the current distribution. Concurrent Observe calls may
// or may not be included; the result is internally consistent enough for
// reporting (percentiles are computed from one pass over the buckets).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [numBuckets]int64
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	snap := HistogramSnapshot{
		Count: total,
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if total == 0 {
		return snap
	}
	for i := range counts {
		if counts[i] != 0 {
			snap.Buckets = append(snap.Buckets, BucketCount{Index: int32(i), Count: counts[i]})
		}
	}
	snap.P50 = quantileFromBuckets(&counts, total, 0.50)
	snap.P95 = quantileFromBuckets(&counts, total, 0.95)
	snap.P99 = quantileFromBuckets(&counts, total, 0.99)
	if snap.P99 > snap.Max && snap.Max > 0 {
		// The top bucket's upper bound can overshoot the true maximum;
		// clamp so reported percentiles never exceed the observed max.
		snap.P99 = snap.Max
	}
	if snap.P95 > snap.Max && snap.Max > 0 {
		snap.P95 = snap.Max
	}
	if snap.P50 > snap.Max && snap.Max > 0 {
		snap.P50 = snap.Max
	}
	return snap
}

// quantileFromBuckets finds the upper bound of the bucket containing the
// q-quantile observation (rank = max(1, min(total, floor(q * total)))).
func quantileFromBuckets(counts *[numBuckets]int64, total int64, q float64) int64 {
	rank := quantileRank(total, q)
	var seen int64
	for i := range counts {
		seen += counts[i]
		if seen >= rank {
			return bucketUpperBound(i)
		}
	}
	return bucketUpperBound(numBuckets - 1)
}

// quantileRank maps a quantile to an observation rank in [1, total]:
// floor(q·total) clamped at both ends, so q <= 0 selects the smallest
// recorded observation and q >= 1 the largest.
func quantileRank(total int64, q float64) int64 {
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	return rank
}

// Quantile returns the value at quantile q, with pinned edge-case behavior:
//
//   - Empty snapshot (Count == 0): 0 for every q — "no data" is reported as
//     zero, never as a stale or sentinel value.
//   - Single-bucket distribution: every q returns that bucket's value (the
//     bucket upper bound, clamped to Max) — p50 == p99 == max by definition
//     when all observations landed in one bucket.
//   - q <= 0 selects the smallest recorded bucket, q >= 1 the largest;
//     results never exceed Max when Max is known.
//   - A snapshot without sparse buckets (decoded from an older producer)
//     degrades to the nearest precomputed percentile: P99 for q >= 0.99,
//     P95 for q >= 0.95, P50 otherwise.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if len(s.Buckets) == 0 {
		switch {
		case q >= 0.99:
			return s.P99
		case q >= 0.95:
			return s.P95
		default:
			return s.P50
		}
	}
	rank := quantileRank(s.Count, q)
	v := bucketUpperBound(int(s.Buckets[len(s.Buckets)-1].Index))
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			v = bucketUpperBound(int(b.Index))
			break
		}
	}
	if s.Max > 0 && v > s.Max {
		v = s.Max
	}
	return v
}

// DeltaSince returns the distribution recorded between an earlier and a
// later snapshot of the same histogram: bucket-wise difference with
// percentiles recomputed over the window. It is what turns the cumulative
// histograms on the metrics stream into windowed roll-ups. When the later
// snapshot is not a superset of the earlier one (the underlying histogram
// was replaced — a container restart), the later snapshot is returned
// unchanged rather than producing negative counts. Max is carried from the
// later snapshot, so it bounds the window from above but may predate it.
func (s HistogramSnapshot) DeltaSince(earlier HistogramSnapshot) HistogramSnapshot {
	if earlier.Count == 0 {
		return s
	}
	if s.Count < earlier.Count || len(s.Buckets) == 0 {
		return s
	}
	prev := make(map[int32]int64, len(earlier.Buckets))
	for _, b := range earlier.Buckets {
		prev[b.Index] = b.Count
	}
	out := HistogramSnapshot{Sum: s.Sum - earlier.Sum, Max: s.Max}
	for _, b := range s.Buckets {
		d := b.Count - prev[b.Index]
		if d < 0 {
			// Bucket shrank: not a prefix — treat as a reset.
			return s
		}
		if d > 0 {
			out.Buckets = append(out.Buckets, BucketCount{Index: b.Index, Count: d})
			out.Count += d
		}
	}
	if out.Sum < 0 {
		out.Sum = 0
	}
	out.P50 = out.Quantile(0.50)
	out.P95 = out.Quantile(0.95)
	out.P99 = out.Quantile(0.99)
	return out
}

// MergeHistograms combines two snapshots of distinct histograms (different
// containers of one job) into one. With sparse buckets on both sides the
// merge is exact: bucket counts add and percentiles are recomputed from the
// merged distribution. Without buckets it falls back to the count-weighted
// percentile approximation.
func MergeHistograms(a, b HistogramSnapshot) HistogramSnapshot {
	return mergeHistogramSnapshots(a, b)
}

// mergeHistogramSnapshots combines per-container summaries into a job-level
// view: counts, sums add; max takes the max. When both sides carry sparse
// buckets the merged percentiles are exact (recomputed from the summed
// buckets); otherwise they are count-weighted averages, good enough for the
// aggregate dumps.
func mergeHistogramSnapshots(a, b HistogramSnapshot) HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	total := a.Count + b.Count
	out := HistogramSnapshot{
		Count: total,
		Sum:   a.Sum + b.Sum,
		Max:   a.Max,
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	if len(a.Buckets) > 0 && len(b.Buckets) > 0 {
		out.Buckets = mergeBuckets(a.Buckets, b.Buckets)
		out.P50 = out.Quantile(0.50)
		out.P95 = out.Quantile(0.95)
		out.P99 = out.Quantile(0.99)
		return out
	}
	wavg := func(x, y int64) int64 {
		return int64((float64(x)*float64(a.Count) + float64(y)*float64(b.Count)) / float64(total))
	}
	out.P50 = wavg(a.P50, b.P50)
	out.P95 = wavg(a.P95, b.P95)
	out.P99 = wavg(a.P99, b.P99)
	return out
}

// mergeBuckets sums two sorted sparse bucket lists into a new sorted list.
func mergeBuckets(a, b []BucketCount) []BucketCount {
	out := make([]BucketCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Index < b[j].Index:
			out = append(out, a[i])
			i++
		case a[i].Index > b[j].Index:
			out = append(out, b[j])
			j++
		default:
			out = append(out, BucketCount{Index: a[i].Index, Count: a[i].Count + b[j].Count})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Timer records durations into a histogram in nanoseconds. It is a value
// type over the underlying histogram, so callers hoist it once
// (`t := reg.Timer("x")`) and the per-event path is two time.Now calls plus
// one lock-free Observe — zero allocations.
type Timer struct {
	h *Histogram
}

// Start returns the start instant for a later Stop.
func (t Timer) Start() time.Time { return time.Now() }

// Stop records the monotonic elapsed time since start.
func (t Timer) Stop(start time.Time) { t.h.Observe(time.Since(start).Nanoseconds()) }
