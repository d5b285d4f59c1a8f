package operators

import (
	"testing"

	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/validate"
)

// fillWindowBlock loads b with n rows [ts, units, pid]: timestamps advance
// stepMillis per row from baseTs, offsets from baseOff, and partition ids
// cycle in runs of runLen so the block path's adjacent-key run detection
// engages alongside the memo.
func fillWindowBlock(b *TupleBlock, n, parts, runLen int, baseTs, baseOff int64, stepMillis int64) {
	b.Reset("in", 0, n)
	b.sizeCols(3, n)
	for r := 0; r < n; r++ {
		ts := baseTs + int64(r)*stepMillis
		b.Cols[0][r] = ts
		b.Cols[1][r] = int64(r%13 + 1)
		b.Cols[2][r] = int64((r / runLen) % parts)
		b.Ts = append(b.Ts, ts)
		b.Keys = append(b.Keys, nil)
		b.Offsets = append(b.Offsets, baseOff+int64(r))
	}
	b.SelAll()
}

// TestSlidingWindowBlockAllocBudget pins the vectorized sliding window's
// per-row allocation cost. A fresh tuple's contribution is appended to its
// partition's resident tail-chunk image and the block's writes leave through
// one arena-backed write batch, so the operator itself allocates per distinct
// key per block (the store's copies of the tail chunk, the block-state map
// key), not per row: of the ~1.06 allocs/row measured, 1.0 is this test
// boxing each row's timestamp into the input block, as the scan stage does.
// The budget leaves headroom for aggregate values too large for the
// runtime's small-integer boxes.
func TestSlidingWindowBlockAllocBudget(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	// The production perf configuration: an object-caching store, so window
	// states stay resident as decoded objects between blocks.
	cached := kv.NewCachedStore(kv.NewStore(), 1<<12, 0)
	ctx := &OpContext{
		Store:   func(string) kv.Store { return cached },
		Metrics: metrics.NewRegistry(),
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	const (
		block = 256
		parts = 4
	)
	b := &TupleBlock{}
	emit := func(*TupleBlock) error { return nil }
	ts := int64(1_600_000_000_000)
	off := int64(0)
	runBlock := func() {
		// Fresh timestamps and offsets per run: replay detection must see
		// new tuples, and advancing time keeps the RANGE purge live.
		fillWindowBlock(b, block, parts, 16, ts, off, 10)
		ts += block * 10
		off += block
		if err := op.ProcessBlock(0, b, emit); err != nil {
			t.Fatal(err)
		}
	}
	runBlock() // warm the scratch arenas and resident states
	allocs := testing.AllocsPerRun(50, runBlock)
	perRow := allocs / block
	t.Logf("vectorized sliding window: %.2f allocs/row (%.0f per %d-row block)", perRow, allocs, block)
	const budget = 2.0
	if perRow > budget {
		t.Errorf("vectorized sliding window: %.2f allocs/row (%.0f per %d-row block), budget %.0f",
			perRow, allocs, block, budget)
	}
}
