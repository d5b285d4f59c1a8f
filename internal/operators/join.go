package operators

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// JoinStoreName is the task store backing the stream-stream join's windowed
// state.
const JoinStoreName = "samzasql-join"

// RelationTableName names the stream-relation join's relation table in the
// store metrics: its lookups, puts and deletes are booked under
// "store.samzasql-relation.{get,put,delete}-ns" as a task store's are
// (kv.Instrument), each block's time shared equally among its rows. Every
// stream row is one get, a NULL key included (it finds nothing without a
// probe): counting only the probes in the probe loop cost 5–10 % per row in
// BenchmarkStreamRelationJoinProbe. A get's share includes copying the
// matched row. Every relation row with a key is one put.
const RelationTableName = "samzasql-relation"

// Side indexes for join inputs.
const (
	LeftSide  = 0
	RightSide = 1
)

// TombstonesSkippedMetric counts relation tombstones (nil-value changelog
// messages) a stream-relation join could not apply because the relation's
// message key does not identify its join state row.
const TombstonesSkippedMetric = "operator.stream-relation-join.tombstones-skipped"

// rowCodecFor compiles the state-row codec of one join input from the row
// type the physical planner hands the operator.
func rowCodecFor(row *types.RowType) *serde.RowCodec {
	return serde.NewRowCodec(vec.KindsOf(row))
}

// StreamRelationJoinOp implements stream-to-relation joins (§4.4): the
// relation arrives as a bootstrapped changelog whose latest row per key the
// operator keeps in a typed hash table (reltable.go); stream tuples then
// probe the table with their key and emit joined rows. The paper's prototype
// kept the relation in the task's key-value store, serialized by a generic
// object serde (Kryo), and names that store access and deserialization as
// the main reason SamzaSQL joins ran ~2x slower than native jobs (§5.1).
// Here a probe reads no bytes and decodes nothing; ObjectSerde only lays
// out the join keys that are neither bare nor of one kind on both sides.
type StreamRelationJoinOp struct {
	// kinds are the combined output row's column kinds; streamAt and relAt
	// where each side starts in it.
	kinds           []vec.Kind
	streamAt, relAt int

	streamKey, relKey joinKey
	// keyKind is the kind of both join keys when they are bare columns of
	// one kind other than vec.Any, compared in the table as typed values;
	// vec.Any when the table compares their state keys ("r:" + ObjectSerde).
	keyKind vec.Kind
	// residual is the full ON condition over the combined row, nil when ON
	// is nothing but the equality of the two bare key columns (keyOnly),
	// which the table probe already decides. resStream and resRel are the
	// side-local columns it reads.
	residual          expr.Evaluator
	resStream, resRel []int

	rel relTable

	// msgKeyKind is the layout of the relation's join column when the
	// relation's changelog is keyed by that column (SetRelationKeyedBy), so
	// a tombstone's message key names the table row to delete; vec.Any
	// when the message key says nothing about the join key.
	msgKeyKind        vec.Kind
	tombstonesSkipped *metrics.Counter
	// getLat, putLat and deleteLat time the table (RelationTableName); nil
	// without a metrics registry.
	getLat, putLat, deleteLat *metrics.Histogram

	// Scratch: the one-value key row, the state key buffer and the combined
	// row the evaluators read; the output block and its selection.
	keyVal     [1]any
	kbuf       []byte
	cmbScratch []any
	outBlock   TupleBlock
	outSel     []int
}

// joinKey is one side's join key: a bare column of the side, whose state
// key is written straight from its vector, or an expression evaluated over
// the combined row, filled from the side's columns it reads.
type joinKey struct {
	col  int            // side-local key column, or -1
	eval expr.Evaluator // when col < 0
	refs []int          // side-local columns eval reads
	at   int            // where the side starts in the combined row
}

// newJoinKey compiles key, an expression over the combined row, for the
// side of the given arity starting at at.
func newJoinKey(key expr.Expr, at, arity int) (joinKey, error) {
	if c, ok := key.(*expr.ColRef); ok && c.Idx >= at && c.Idx < at+arity {
		return joinKey{col: c.Idx - at, at: at}, nil
	}
	ev, err := expr.Compile(key)
	if err != nil {
		return joinKey{}, err
	}
	return joinKey{col: -1, eval: ev, refs: sideCols(key, at, arity), at: at}, nil
}

// sideCols lists the side-local columns of the side [at, at+arity) that e
// reads.
func sideCols(e expr.Expr, at, arity int) []int {
	var cols []int
	for _, c := range expr.Columns(e) {
		if c >= at && c < at+arity {
			cols = append(cols, c-at)
		}
	}
	return cols
}

// keyOnly reports whether on is nothing but the equality of the two bare
// key columns, of one kind whose values are equal exactly when their state
// keys are (BIGINT-like or VARCHAR). The keys are bound apart from on, so
// columns are compared by index.
func keyOnly(on, streamKey, relKey expr.Expr) bool {
	eq, ok := on.(*expr.Binary)
	if !ok || eq.Op != expr.Eq {
		return false
	}
	l, lok := eq.L.(*expr.ColRef)
	r, rok := eq.R.(*expr.ColRef)
	sk, sok := streamKey.(*expr.ColRef)
	rk, kok := relKey.(*expr.ColRef)
	if !lok || !rok || !sok || !kok {
		return false
	}
	if !(l.Idx == sk.Idx && r.Idx == rk.Idx) && !(l.Idx == rk.Idx && r.Idx == sk.Idx) {
		return false
	}
	kind := vec.KindOf(sk.T)
	return kind == vec.KindOf(rk.T) && (kind == vec.Int64 || kind == vec.String)
}

// NewStreamRelationJoinOp builds the operator for inputs of the given row
// types. info's LeftKey/RightKey are bound over the combined row.
func NewStreamRelationJoinOp(info *validate.JoinInfo, left, right *types.RowType, streamIsLeft bool) (*StreamRelationJoinOp, error) {
	op := &StreamRelationJoinOp{kinds: append(vec.KindsOf(left), vec.KindsOf(right)...)}
	streamKey, relKey := info.LeftKey, info.RightKey
	stream, rel := left, right
	op.relAt = left.Arity()
	if !streamIsLeft {
		streamKey, relKey = relKey, streamKey
		stream, rel = rel, stream
		op.streamAt, op.relAt = left.Arity(), 0
	}
	var err error
	if op.streamKey, err = newJoinKey(streamKey, op.streamAt, stream.Arity()); err != nil {
		return nil, err
	}
	if op.relKey, err = newJoinKey(relKey, op.relAt, rel.Arity()); err != nil {
		return nil, err
	}
	if op.streamKey.col >= 0 && op.relKey.col >= 0 {
		if k := op.kinds[op.streamAt+op.streamKey.col]; k == op.kinds[op.relAt+op.relKey.col] {
			op.keyKind = k
		}
	}
	// A VARCHAR key is its relation column's bytes; any other byte key is
	// the state key, which the table keeps itself. A fixed-width key column
	// is not kept: a match's value is the stream row's key.
	keyCol := -1
	if op.keyKind != vec.Any {
		keyCol = op.relKey.col
	}
	op.rel = newRelTable(vec.KindsOf(rel), op.keyKind != vec.Any && op.keyKind != vec.String, keyCol)
	if !keyOnly(info.On, streamKey, relKey) {
		if op.residual, err = expr.Compile(info.On); err != nil {
			return nil, err
		}
		op.resStream = sideCols(info.On, op.streamAt, stream.Arity())
		op.resRel = sideCols(info.On, op.relAt, rel.Arity())
	}
	op.cmbScratch = make([]any, len(op.kinds))
	return op, nil
}

// SetRelationKeyedBy declares that the relation's changelog messages are
// keyed by the join column, a column of type t: the decimal / plain-text
// rendering of the column value, as publishers and the repartition stage
// write it. DeleteRelation can then apply tombstones.
func (o *StreamRelationJoinOp) SetRelationKeyedBy(t types.Type) {
	o.msgKeyKind = vec.KindOf(t)
}

// Open implements Operator.
func (o *StreamRelationJoinOp) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		o.tombstonesSkipped = ctx.Metrics.Counter(TombstonesSkippedMetric)
		prefix := "store." + RelationTableName + "."
		o.getLat = ctx.Metrics.Histogram(prefix + "get-ns")
		o.putLat = ctx.Metrics.Histogram(prefix + "put-ns")
		o.deleteLat = ctx.Metrics.Histogram(prefix + "delete-ns")
	}
	return nil
}

// book records n table operations that took the time since start into h,
// an equal share each.
func book(h *metrics.Histogram, start time.Time, n int) {
	if h != nil && n > 0 {
		h.ObserveN(time.Since(start).Nanoseconds()/int64(n), int64(n))
	}
}

// appendRelKey appends the state key of join-key value kval to dst: "r:"
// plus the ObjectSerde encoding of the one-value key row.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) appendRelKey(dst []byte, kval any) ([]byte, error) {
	dst = append(dst, 'r', ':')
	o.keyVal[0] = kval
	return serde.ObjectSerde{}.AppendEncode(dst, o.keyVal[:])
}

// appendKey appends the state key of row r of b under key k to dst — the
// bytes appendRelKey writes for the key's value — and reports whether the
// key is NULL. A key column is read from its vector unboxed.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) appendKey(dst []byte, k *joinKey, b *TupleBlock, r int) ([]byte, bool, error) {
	if k.col < 0 {
		row := o.cmbScratch
		for _, c := range k.refs {
			row[k.at+c] = b.Cols[c].Value(r)
		}
		kval, err := k.eval(row)
		if err != nil {
			return nil, false, fmt.Errorf("operators: join key: %w", err)
		}
		dst, err = o.appendRelKey(dst, kval)
		return dst, kval == nil, err
	}
	col := &b.Cols[k.col]
	if col.Kind == vec.Any {
		kval := col.Value(r)
		dst, err := o.appendRelKey(dst, kval)
		return dst, kval == nil, err
	}
	dst = serde.AppendRowHeader(append(dst, 'r', ':'), 1)
	switch {
	case col.IsNull(r):
		return serde.AppendNull(dst), true, nil
	case col.Kind == vec.Int64:
		return serde.AppendLong(dst, col.I64[r]), false, nil
	case col.Kind == vec.String:
		return serde.AppendString(dst, col.Str(r)), false, nil
	case col.Kind == vec.Float64:
		return serde.AppendDouble(dst, col.F64[r]), false, nil
	}
	return serde.AppendBool(dst, col.Bools[r]), false, nil
}

// tableKey returns the join key of row r of b under k in the table's form,
// and whether it is NULL: a typed key read from its vector, or the state key
// appendKey writes, in o.kbuf.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) tableKey(k *joinKey, b *TupleBlock, r int) (tableKey, bool, error) {
	if o.keyKind == vec.Any {
		var null bool
		var err error
		o.kbuf, null, err = o.appendKey(o.kbuf[:0], k, b, r)
		return tableKey{str: o.kbuf}, null, err
	}
	col := &b.Cols[k.col]
	switch {
	case col.Kind != o.keyKind:
		return tableKey{}, false, fmt.Errorf("operators: join key column is %s, planned %s", col.Kind, o.keyKind)
	case col.IsNull(r):
		return tableKey{}, true, nil
	case col.Kind == vec.Int64:
		return tableKey{bits: uint64(col.I64[r])}, false, nil
	case col.Kind == vec.Float64:
		return tableKey{bits: math.Float64bits(col.F64[r])}, false, nil
	case col.Kind == vec.Bool:
		return tableKey{bits: boolBits(col.Bools[r])}, false, nil
	}
	return tableKey{str: col.Str(r)}, false, nil
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// DeleteRelation applies a relation tombstone — a nil-value message on the
// relation's changelog, how a compacted topic deletes a row. When the
// changelog is keyed by the join column the message key names the table
// row, which is deleted; otherwise nothing identifies the row and the
// tombstone is skipped and counted.
func (o *StreamRelationJoinOp) DeleteRelation(msgKey []byte) error {
	kval, ok := parseMessageKey(o.msgKeyKind, msgKey)
	if !ok {
		if o.tombstonesSkipped != nil {
			o.tombstonesSkipped.Inc()
		}
		return nil
	}
	start := time.Now()
	var k tableKey
	switch v := kval.(type) {
	case int64:
		k.bits = uint64(v)
	case float64:
		k.bits = math.Float64bits(v)
	case bool:
		k.bits = boolBits(v)
	case string:
		k.str = []byte(v)
	}
	if o.keyKind == vec.Any {
		var err error
		if o.kbuf, err = o.appendRelKey(o.kbuf[:0], kval); err != nil {
			return err
		}
		k = tableKey{str: o.kbuf}
	}
	o.rel.remove(k)
	book(o.deleteLat, start, 1)
	return nil
}

// parseMessageKey reads a message key written in the publisher convention
// (integers in decimal, strings as their bytes) back into a column value of
// the given kind.
func parseMessageKey(kind vec.Kind, key []byte) (any, bool) {
	switch kind {
	case vec.Int64:
		v, err := strconv.ParseInt(string(key), 10, 64)
		return v, err == nil
	case vec.String:
		return string(key), true
	case vec.Float64:
		v, err := strconv.ParseFloat(string(key), 64)
		return v, err == nil
	case vec.Bool:
		v, err := strconv.ParseBool(string(key))
		return v, err == nil
	}
	return nil, false
}

// StreamStreamJoinOp implements windowed stream-to-stream joins (§3.8.1):
// each side's recent tuples are retained in the local store keyed by
// (join key, timestamp, offset); an arriving tuple probes the opposite
// side's window, evaluates the full ON condition over the combined row, and
// emits matches. Tuples older than the window fall out of state as the
// event-time watermark advances.
type StreamStreamJoinOp struct {
	info       *validate.JoinInfo
	leftArity  int
	rightArity int
	kinds      []vec.Kind

	leftKey, rightKey expr.Evaluator // over combined row
	residual          expr.Evaluator

	store kv.Store
	// codecs are the two inputs' state-row codecs, indexed by side.
	codecs    [2]*serde.RowCodec
	watermark [2]int64

	// processOne scratch: the one-value key row, the encoded row buffer (the
	// store copies it) and a decode row per side.
	keyVal     [1]any
	vbuf       []byte
	rowDecoded [2][]any

	// ProcessBlock's output block and gather row (block_stateful.go).
	outBlock   TupleBlock
	rowScratch []any
}

// NewStreamStreamJoinOp builds the operator for inputs of the given row
// types.
func NewStreamStreamJoinOp(info *validate.JoinInfo, left, right *types.RowType) (*StreamStreamJoinOp, error) {
	op := &StreamStreamJoinOp{info: info, leftArity: left.Arity(), rightArity: right.Arity(),
		kinds: append(vec.KindsOf(left), vec.KindsOf(right)...)}
	op.codecs = [2]*serde.RowCodec{rowCodecFor(left), rowCodecFor(right)}
	op.rowDecoded = [2][]any{make([]any, left.Arity()), make([]any, right.Arity())}
	var err error
	if op.leftKey, err = expr.Compile(info.LeftKey); err != nil {
		return nil, err
	}
	if op.rightKey, err = expr.Compile(info.RightKey); err != nil {
		return nil, err
	}
	if op.residual, err = expr.Compile(info.On); err != nil {
		return nil, err
	}
	return op, nil
}

// Open implements Operator.
func (o *StreamStreamJoinOp) Open(ctx *OpContext) error {
	o.store = ctx.Store(JoinStoreName)
	return nil
}

// processOne is the row-level join step (side 0 = left stream, side 1 =
// right stream): store the tuple on its own side, probe the opposite side's
// window, append every match to the output block under the row's timestamp,
// message key and offset, then purge. State access stays range-based per
// tuple — write-once windowed side state cannot use batched point reads.
func (o *StreamStreamJoinOp) processOne(side int, row []any, ts, offset int64, key []byte) error {
	if side != LeftSide && side != RightSide {
		return fmt.Errorf("operators: bad join side %d", side)
	}
	// Compute this side's join key over a half-filled combined row.
	var combined []any
	if side == LeftSide {
		combined = o.combineRows(row, nil)
	} else {
		combined = o.combineRows(nil, row)
	}
	keyEval := o.leftKey
	if side == RightSide {
		keyEval = o.rightKey
	}
	kvVal, err := keyEval(combined)
	if err != nil {
		return fmt.Errorf("operators: join key: %w", err)
	}
	o.keyVal[0] = kvVal
	pk, err := serde.ObjectSerde{}.Encode(o.keyVal[:])
	if err != nil {
		return err
	}

	// Store this tuple on its own side.
	myKey := o.sideKey(byte(side), pk, ts, offset)
	if o.vbuf, err = o.codecs[side].AppendEncode(o.vbuf[:0], row); err != nil {
		return err
	}
	o.store.Put(myKey, o.vbuf)

	// Probe the other side within the time window.
	other := 1 - side
	w := o.info.WindowMillis
	loTs := ts - w
	if loTs < 0 {
		loTs = 0 // negative would wrap in the unsigned key encoding
	}
	lo := o.sideKey(byte(other), pk, loTs, 0)
	hi := o.sideKey(byte(other), pk, ts+w+1, 0)
	otherRow := o.rowDecoded[other]
	for _, e := range o.store.Range(lo, hi, 0) {
		if err := o.codecs[other].Decode(e.Value, otherRow); err != nil {
			return fmt.Errorf("operators: join row decode: %w", err)
		}
		var full []any
		if side == LeftSide {
			full = o.combineRows(row, otherRow)
		} else {
			full = o.combineRows(otherRow, row)
		}
		v, err := o.residual(full)
		if err != nil {
			return fmt.Errorf("operators: join condition: %w", err)
		}
		if b, ok := v.(bool); ok && b {
			if err := o.outBlock.AppendRow(full, ts, key, offset); err != nil {
				return err
			}
		}
	}

	// Purge this side's tuples that can no longer match: anything older
	// than the opposite watermark minus the window.
	o.watermark[side] = maxI64(o.watermark[side], ts)
	cutoff := o.watermark[other] - w
	if cutoff > 0 {
		start := o.sidePrefix(byte(side), pk)
		end := o.sideKey(byte(side), pk, cutoff, 0)
		for _, e := range o.store.Range(start, end, 0) {
			o.store.Delete(e.Key)
		}
	}
	return nil
}

func (o *StreamStreamJoinOp) combineRows(left, right []any) []any {
	out := make([]any, o.leftArity+o.rightArity)
	copy(out, left)
	copy(out[o.leftArity:], right)
	return out
}

func (o *StreamStreamJoinOp) sidePrefix(side byte, pk []byte) []byte {
	out := make([]byte, 0, 4+len(pk))
	out = append(out, 'j', side)
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(pk)))
	out = append(out, l[:]...)
	return append(out, pk...)
}

func (o *StreamStreamJoinOp) sideKey(side byte, pk []byte, ts, offset int64) []byte {
	out := o.sidePrefix(side, pk)
	out = append(out, u64be(uint64(ts))...)
	return append(out, u64be(uint64(offset))...)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
