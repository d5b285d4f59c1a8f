package operators

import (
	"encoding/binary"
	"fmt"

	"samzasql/internal/kv"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// AggStoreName is the task store the streaming aggregate operator uses.
const AggStoreName = "samzasql-agg"

// StreamAggregateOp implements grouped aggregation over streams (§4.3
// "Hopping and tumbling windows are implemented in the streaming aggregate
// operator"). Two emission modes:
//
//   - Windowed (HOP/TUMBLE in GROUP BY): per-window accumulators keyed by
//     (window end, group key) live in the task's key-value store; a window
//     emits when the event-time watermark passes its end, and tuples for
//     already-emitted windows are discarded — the paper's timeout-expiry
//     deviation from standard SQL semantics (§3).
//
//   - Unwindowed GROUP BY: the early-results policy — every input tuple
//     emits the group's updated aggregate row immediately (an insert stream
//     of partial results, §3.3).
//
// Replayed messages are detected via per-stream last-offset markers kept in
// the same store, giving deterministic output across failure and replay.
type StreamAggregateOp struct {
	keys   []expr.Expr
	window *validate.GroupWindow
	aggs   []*validate.BoundAgg

	keyEvals []expr.Evaluator
	tsEval   expr.Evaluator
	// argEvals and accumCtors are the aggregate argument evaluators and
	// accumulator constructors, resolved once at construction and shared by
	// every AccumSet the state decode path builds.
	argEvals   []expr.Evaluator
	accumCtors []func() Accumulator
	// kinds are the output row's column kinds (keys, then aggregates); refs
	// the input columns the key, timestamp and argument expressions read.
	kinds []vec.Kind
	refs  []int

	store     kv.Store
	obj       serde.ObjectSerde
	watermark int64
	sources   sourceKeys
	srcNames  sourceNames
	// valBuf is the scratch a state row is encoded into.
	valBuf []byte

	// Per-block scratch (block_stateful.go): the output block, the gather
	// row, the group key values and bytes, per-row timestamps and key values,
	// the block's distinct store keys (built back to back in keyArena, found
	// through blkTable), their states, each row's slots among them, and the
	// batched-read slices.
	outBlock   TupleBlock
	rowScratch []any
	keyScratch []any
	kbuf       []byte
	blkTs      []int64
	blkKeyVals []any
	keyArena   []byte
	blkTable   keyTable
	blkKeys    [][]byte
	blkStates  []aggBlockState
	blkSlots   []int32
	blkVals    [][]byte
	blkOks     []bool
}

// aggBlockState is one group's (or one (window, group)'s) state while a
// block is in flight: loaded once per block, written back once when dirty.
type aggBlockState struct {
	set     *AccumSet
	offsets appliedOffsets
	dirty   bool
}

// NewStreamAggregateOp builds the operator from the bound query pieces.
func NewStreamAggregateOp(keys []expr.Expr, window *validate.GroupWindow, aggs []*validate.BoundAgg) (*StreamAggregateOp, error) {
	op := &StreamAggregateOp{keys: keys, window: window, aggs: aggs}
	read := append([]expr.Expr(nil), keys...)
	for _, k := range keys {
		op.kinds = append(op.kinds, vec.KindOf(k.Type()))
	}
	for _, ag := range aggs {
		op.kinds = append(op.kinds, vec.KindOf(ag.T))
		if ag.Arg != nil {
			read = append(read, ag.Arg)
		}
	}
	if window != nil {
		read = append(read, window.Ts)
	}
	op.refs = expr.Columns(read...)
	for _, k := range keys {
		ev, err := expr.Compile(k)
		if err != nil {
			return nil, err
		}
		op.keyEvals = append(op.keyEvals, ev)
	}
	if window != nil {
		ev, err := expr.Compile(window.Ts)
		if err != nil {
			return nil, err
		}
		op.tsEval = ev
	}
	evals, err := CompileAggArgs(aggs)
	if err != nil {
		return nil, err
	}
	op.argEvals = evals
	ctors, err := AccumCtors(aggs)
	if err != nil {
		return nil, err
	}
	op.accumCtors = ctors
	return op, nil
}

// Open implements Operator.
func (o *StreamAggregateOp) Open(ctx *OpContext) error {
	o.store = ctx.Store(AggStoreName)
	o.srcNames = sourceNames{}
	if v, ok := o.store.Get([]byte("wm")); ok && len(v) == 8 {
		o.watermark = int64(binary.BigEndian.Uint64(v))
	}
	return nil
}

// nextBoundary returns the smallest e > ts with e ≡ align (mod every).
func nextBoundary(ts, every, align int64) int64 {
	base := ts - align
	k := base / every
	e := k*every + align
	for e <= ts {
		e += every
	}
	return e
}

// advanceWatermark appends every stored window whose end is <= the new
// watermark to out, under the given source offset, then persists the
// watermark.
func (o *StreamAggregateOp) advanceWatermark(ts int64, out *TupleBlock, offset int64) error {
	// Window store keys are "w:"+bigendian(end)+keyBytes, so a range scan
	// up to the new watermark finds exactly the closed windows in end
	// order — deterministic emission.
	start := []byte("w:")
	end := append([]byte("w:"), u64be(uint64(ts)+1)...)
	closed := o.store.Range(start, end, 0)
	// The output rows keep the window keys as message keys past the "wm"
	// put below, which ends the Range views: they get a copy.
	n := 0
	for _, e := range closed {
		n += len(e.Key)
	}
	keys := make([]byte, 0, n)
	for _, e := range closed {
		keys = append(keys, e.Key...)
		msgKey := keys[len(keys)-len(e.Key) : len(keys) : len(keys)]
		winEnd := int64(binary.BigEndian.Uint64(e.Key[2:10]))
		keyVals, set, err := o.decodeEntry(e)
		if err != nil {
			return err
		}
		set.SetWindow(winEnd-o.window.RetainMillis, winEnd)
		if err := out.AppendRow(append(keyVals, set.Values()...), winEnd, msgKey, offset); err != nil {
			return err
		}
		o.store.Delete(e.Key)
	}
	o.watermark = ts
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(ts))
	o.store.Put([]byte("wm"), buf[:])
	return nil
}

func u64be(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// FlushFinal emits every window still open. The bounded (table-mode)
// executor calls this at end of input, where "the history of the stream up
// to the point of execution" (§3.3) is complete and all windows close.
func (o *StreamAggregateOp) FlushFinal(emit BlockEmit) error {
	if o.window == nil {
		return nil // unwindowed groups already emitted their latest rows
	}
	out := &o.outBlock
	out.resetOut(&TupleBlock{}, o.kinds)
	if err := o.advanceWatermark(int64(1)<<62, out, 0); err != nil {
		return err
	}
	out.Finish()
	return emit(out)
}

func (o *StreamAggregateOp) decodeEntry(e kv.Entry) ([]any, *AccumSet, error) {
	kv, err := o.obj.Decode(e.Key[10:])
	if err != nil {
		return nil, nil, err
	}
	set, _, err := o.decodeSet(e.Value, true)
	if err != nil {
		return nil, nil, err
	}
	return kv.([]any), set, nil
}

// The state row of a group (or of a (window, group)) is the object-serde
// row [offsets, accumulator states]: the applied-offset vector as a nested
// row of (source, offset) pairs, then the AccumSet state as a nested row.

// decodeSet builds the accumulator set and offset vector from stored state
// bytes; ok=false yields a fresh empty set.
func (o *StreamAggregateOp) decodeSet(v []byte, ok bool) (*AccumSet, appliedOffsets, error) {
	set := NewAccumSetWith(o.aggs, o.argEvals, o.accumCtors)
	if !ok {
		return set, nil, nil
	}
	r := serde.NewReader(v)
	if n := r.RowHeader(); r.Err() == nil && n != 2 {
		return nil, nil, fmt.Errorf("operators: aggregate state has %d fields", n)
	}
	offs, accs := r.Row(), r.Row()
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("operators: aggregate state: %w", err)
	}
	offsets, err := readOffsetsRow(offs, o.srcNames)
	if err != nil {
		return nil, nil, err
	}
	if err := set.ReadState(accs); err != nil {
		return nil, nil, err
	}
	return set, offsets, nil
}

func (o *StreamAggregateOp) saveSet(storeKey []byte, set *AccumSet, offsets appliedOffsets) error {
	buf := serde.AppendRowHeader(o.valBuf[:0], 2)
	buf = offsets.appendRow(serde.AppendNestedRow(buf))
	buf, err := set.AppendState(serde.AppendNestedRow(buf))
	if err != nil {
		return fmt.Errorf("operators: aggregate state: %w", err)
	}
	o.valBuf = buf
	o.store.Put(storeKey, buf)
	return nil
}
