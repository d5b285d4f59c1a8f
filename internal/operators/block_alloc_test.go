package operators

import (
	"math/rand"
	"testing"

	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// fillWindowBlock loads b with n rows [ts, units, pid]: timestamps advance
// stepMillis per row from baseTs, offsets from baseOff, and partition ids
// cycle in runs of runLen so the block path's adjacent-key run detection
// engages alongside the key table.
func fillWindowBlock(b *TupleBlock, n, parts, runLen int, baseTs, baseOff int64, stepMillis int64) {
	b.Begin("in", 0, int64Kinds)
	for r := 0; r < n; r++ {
		ts := baseTs + int64(r)*stepMillis
		b.Cols[0].AppendInt64(ts)
		b.Cols[1].AppendInt64(int64(r%13 + 1))
		b.Cols[2].AppendInt64(int64((r / runLen) % parts))
		b.appendMeta(ts, nil, baseOff+int64(r))
	}
	b.Finish()
}

var int64Kinds = []vec.Kind{vec.Int64, vec.Int64, vec.Int64}

// TestSlidingWindowBlockAllocBudget pins the vectorized sliding window's
// per-row allocation cost with four keys per block. The partition key, the
// ORDER BY timestamp and the SUM argument are bare Int64 columns, read
// unboxed; partition keys are encoded into the write batch's arena and
// numbered by the key table; the accumulator state is written and read
// without boxing, by pooled accumulators; the SUM goes into the output
// vector as an int64. What is left is the store's copies of each distinct
// key's tail chunk and state row per block — about 0.03 allocs/row, down
// from 1.42 before the typed state path (the boxed timestamp alone was 1.0).
func TestSlidingWindowBlockAllocBudget(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
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
	runBlock() // warm the scratch arenas and the state pool
	allocs := testing.AllocsPerRun(50, runBlock)
	perRow := allocs / block
	t.Logf("vectorized sliding window: %.2f allocs/row (%.0f per %d-row block)", perRow, allocs, block)
	const budget = 0.25
	if perRow > budget {
		t.Errorf("vectorized sliding window: %.2f allocs/row (%.0f per %d-row block), budget %.2f",
			perRow, allocs, block, budget)
	}
}

// TestStreamAggregateBlockAllocBudget pins the streaming aggregate's per-row
// allocation cost over the same blocks as the window pin (four group keys per
// block, in runs of 16), unwindowed and tumbling. Store keys are built in a
// per-block arena and numbered by the key table, and state rows are read and
// written without the object serde's boxed rows: 5.29 allocs/row unwindowed
// and 6.34 tumbling before, 2.07 and 1.85 after. What is left is the boxing
// of the folds — the per-row COUNT and SUM values of the early results, the
// boxed timestamp column a window reads — and a fresh accumulator set per
// distinct key per block.
func TestStreamAggregateBlockAllocBudget(t *testing.T) {
	pid := &expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}
	tumble := &validate.GroupWindow{
		Kind:         validate.WindowTumble,
		Ts:           &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		EmitMillis:   1000,
		RetainMillis: 1000,
	}
	for _, c := range []struct {
		name   string
		window *validate.GroupWindow
		budget float64
	}{
		{"unwindowed", nil, 2.5},
		{"tumble", tumble, 2.25},
	} {
		t.Run(c.name, func(t *testing.T) {
			op, err := NewStreamAggregateOp([]expr.Expr{pid}, c.window, boundAggs("COUNT", "SUM"))
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(testCtx()); err != nil {
				t.Fatal(err)
			}
			const block = 256
			b := &TupleBlock{}
			emit := func(*TupleBlock) error { return nil }
			ts := int64(1_600_000_000_000)
			off := int64(0)
			runBlock := func() {
				fillWindowBlock(b, block, 4, 16, ts, off, 10)
				ts += block * 10
				off += block
				if err := op.ProcessBlock(0, b, emit); err != nil {
					t.Fatal(err)
				}
			}
			runBlock()
			perRow := testing.AllocsPerRun(50, runBlock) / block
			t.Logf("%s aggregate: %.2f allocs/row", c.name, perRow)
			if perRow > c.budget {
				t.Errorf("%s aggregate: %.2f allocs/row, budget %.2f", c.name, perRow, c.budget)
			}
		})
	}
}

// TestStreamRelationJoinBlockAllocBudget pins the vectorized stream-relation
// join's per-stream-row allocation cost against a 10 000-row relation. State
// keys are built in a per-block arena, distinct keys are found without a map,
// relation rows decode into a per-block row arena and the output block's
// columns are reused, so what is left per probed key is the boxing of the
// relation's integer columns wider than one byte (the runtime's small-integer
// boxes cover the rest) — here supplierId < 1000, i.e. ~1.7 boxes per distinct
// key with productId — and nothing per stream row: the join copies stream
// columns vector to vector and boxes only the key column its evaluators
// read, once per block (each input block here is reused, its view with it).
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
		rel.Begin("products", 0, vec.KindsOf(relation))
		for r := 0; r < n; r++ {
			rel.Cols[0].AppendInt64(int64(base + r))
			if err := rel.Cols[1].Append(nil); err != nil {
				t.Fatal(err)
			}
			rel.Cols[2].AppendInt64(rng.Int63n(1000))
			rel.appendMeta(0, nil, int64(base+r))
		}
		rel.Finish()
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
		b.Begin("orders", 0, vec.KindsOf(stream))
		for r := 0; r < block; r++ {
			seq := int64(i*block + r)
			b.Cols[0].AppendInt64(int64(1_600_000_000_000) + seq*10)
			b.Cols[1].AppendInt64(rng.Int63n(products))
			b.Cols[2].AppendInt64(seq)
			b.appendMeta(0, nil, seq)
		}
		b.Finish()
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
