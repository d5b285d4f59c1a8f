package operators

import (
	"math/rand"
	"testing"

	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
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

// TestStreamRelationJoinBlockAllocBudget pins the vectorized stream-relation
// join's per-stream-row allocation cost against a 10 000-row relation. State
// keys are built in a per-block arena, distinct keys are found without a map,
// relation rows decode into a per-block row arena and the output block's
// columns are reused, so what is left per probed key is the boxing of the
// relation's integer columns wider than one byte (the runtime's small-integer
// boxes cover the rest) — here supplierId < 1000, i.e. ~1.7 boxes per distinct
// key with productId — and nothing per stream row. The input blocks are built
// (and their values boxed) before measuring, as the scan stage would have.
func TestStreamRelationJoinBlockAllocBudget(t *testing.T) {
	stream := types.NewRowType(
		types.Column{Name: "rowtime", Type: types.Timestamp},
		types.Column{Name: "productId", Type: types.Bigint},
		types.Column{Name: "orderId", Type: types.Bigint},
	)
	relation := types.NewRowType(
		types.Column{Name: "productId", Type: types.Bigint},
		types.Column{Name: "name", Type: types.Varchar},
		types.Column{Name: "supplierId", Type: types.Bigint},
	)
	streamKey := &expr.ColRef{Idx: 1, Name: "productId", T: types.Bigint}
	relKey := &expr.ColRef{Idx: 3, Name: "productId", T: types.Bigint}
	info := &validate.JoinInfo{
		On:      &expr.Binary{Op: expr.Eq, L: streamKey, R: relKey, T: types.Boolean},
		LeftKey: streamKey, RightKey: relKey,
	}
	op, err := NewStreamRelationJoinOp(info, stream, relation, true)
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewStore()
	ctx := &OpContext{
		Store:   func(string) kv.Store { return store },
		Metrics: metrics.NewRegistry(),
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	const (
		products = 10_000
		block    = 256
	)
	emit := func(*TupleBlock) error { return nil }

	// Load the relation through the relation side's block path, name already
	// pruned to NULL as the required-columns pass leaves it.
	rng := rand.New(rand.NewSource(1))
	rel := &TupleBlock{}
	for base := 0; base < products; base += block {
		n := min(block, products-base)
		rel.Reset("products", 0, n)
		rel.sizeCols(3, n)
		for r := 0; r < n; r++ {
			rel.Cols[0][r] = int64(base + r)
			rel.Cols[1][r] = nil
			rel.Cols[2][r] = rng.Int63n(1000)
			rel.Ts = append(rel.Ts, 0)
			rel.Keys = append(rel.Keys, nil)
			rel.Offsets = append(rel.Offsets, int64(base+r))
		}
		rel.SelAll()
		if err := op.ProcessBlock(RightSide, rel, emit); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != products {
		t.Fatalf("relation side stored %d rows, want %d", store.Len(), products)
	}

	blocks := make([]*TupleBlock, 8)
	for i := range blocks {
		b := &TupleBlock{}
		b.Reset("orders", 0, block)
		b.sizeCols(3, block)
		for r := 0; r < block; r++ {
			seq := int64(i*block + r)
			b.Cols[0][r] = int64(1_600_000_000_000) + seq*10
			b.Cols[1][r] = rng.Int63n(products)
			b.Cols[2][r] = seq
			b.Ts = append(b.Ts, 0)
			b.Keys = append(b.Keys, nil)
			b.Offsets = append(b.Offsets, seq)
		}
		b.SelAll()
		blocks[i] = b
	}
	var rows int
	emit = func(out *TupleBlock) error { rows += len(out.Sel); return nil }
	next := 0
	runBlock := func() {
		if err := op.ProcessBlock(LeftSide, blocks[next%len(blocks)], emit); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range blocks {
		runBlock() // warm the arenas
	}
	rows = 0
	allocs := testing.AllocsPerRun(64, runBlock)
	if rows != 65*block { // AllocsPerRun adds one warm-up run of its own
		t.Fatalf("joined %d rows over 65 blocks, want every stream row (%d)", rows, 65*block)
	}
	perRow := allocs / block
	t.Logf("vectorized stream-relation join: %.2f allocs/stream row (%.0f per %d-row block)", perRow, allocs, block)
	const budget = 2.0
	if perRow > budget {
		t.Errorf("vectorized stream-relation join: %.2f allocs/stream row (%.0f per %d-row block), budget %.1f",
			perRow, allocs, block, budget)
	}
}
