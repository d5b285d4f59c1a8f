package operators

import (
	"math/rand"
	"runtime"
	"testing"

	"samzasql/internal/metrics"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// BenchmarkStreamRelationJoinProbe probes a 100 000-row relation with
// 1024-row stream blocks of uniformly drawn keys, the shape of the
// benchmark's enrich_join query: Orders [rowtime, productId, orderId] joined
// on productId with Products [productId, name, supplierId], whose name the
// scan leaves absent because no operator reads it. Reports ns/row and
// allocs/row per stream row.
func BenchmarkStreamRelationJoinProbe(b *testing.B) {
	const (
		products = 100_000
		block    = 1024
	)
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
		b.Fatal(err)
	}
	if err := op.Open(&OpContext{Metrics: metrics.NewRegistry()}); err != nil {
		b.Fatal(err)
	}
	emit := func(*TupleBlock) error { return nil }
	rng := rand.New(rand.NewSource(1))
	rel := &TupleBlock{}
	for base := 0; base < products; base += block {
		n := min(block, products-base)
		rel.Begin("products", 0, vec.KindsOf(relation))
		for r := 0; r < n; r++ {
			appendInt64(&rel.Cols[0], int64(base+r))
			appendInt64(&rel.Cols[2], rng.Int63n(1000))
			rel.appendMeta(0, nil, int64(base+r))
		}
		rel.Finish()
		rel.Cols[1].Reset(vec.String, n, true)
		if err := op.ProcessBlock(RightSide, rel, emit); err != nil {
			b.Fatal(err)
		}
	}

	blocks := make([]*TupleBlock, 16)
	for i := range blocks {
		blk := &TupleBlock{}
		blk.Begin("orders", 0, vec.KindsOf(stream))
		for r := 0; r < block; r++ {
			seq := int64(i*block + r)
			appendInt64(&blk.Cols[0], int64(1_600_000_000_000)+seq)
			appendInt64(&blk.Cols[1], rng.Int63n(products))
			appendInt64(&blk.Cols[2], seq)
			blk.appendMeta(0, nil, seq)
		}
		blk.Finish()
		blocks[i] = blk
	}
	for _, blk := range blocks {
		if err := op.ProcessBlock(LeftSide, blk, emit); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.ProcessBlock(LeftSide, blocks[i%len(blocks)], emit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N) * block
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}
