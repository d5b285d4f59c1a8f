package operators

import (
	"encoding/binary"
	"fmt"

	"samzasql/internal/kv"
	"samzasql/internal/vec"
)

// ProcessBlock of the stateful operators: sliding window, streaming
// aggregate, stream-relation join, stream-stream join. The shared scheme is
// per-block group clustering — evaluate key expressions columnarly over the
// block, encode each group/join key once per distinct key (adjacent equal
// keys are run-detected, the single-int64 memo catches repeats across
// runs), load every distinct key's state through one batched store read
// (kv.GetMany), fold all of the key's rows, and
// write the state back once per key per block instead of once per tuple.
//
// Output rows are emitted in input-row order (window emissions in window-end
// order), so a program produces byte-identical output in the identical
// sequence at every block size — the property the block-size equivalence
// tests pin against goldens recorded from the retired per-tuple path.

// runEqual reports whether two consecutive key values are equal, for the
// scalar types worth run-detecting. Other types report comparable=false and
// fall back to per-row encoding.
func runEqual(a, b any) (eq, ok bool) {
	switch av := a.(type) {
	case int64:
		bv, ok := b.(int64)
		return ok && av == bv, true
	case string:
		bv, ok := b.(string)
		return ok && av == bv, true
	}
	return false, false
}

// ----- SlidingWindowOp -----

// ProcessBlock implements Operator: Algorithm 1 over a whole block.
// Per analytic call it clusters the block's rows by partition key, loads
// each distinct key's window state and tail chunk once (batched), folds the
// key's rows in offset order through foldTuple, and stages each modified
// state once; everything the block wrote —
// chunk puts, chunk deletes, state rows, across all calls — then goes to the
// store as one kv write batch. The output block shares the input's column
// vectors and rows and adds one vector per call; replayed rows
// (already-applied offsets) are deselected: re-delivered messages change no
// state and produce no output (exactly-once, §4.3).
//
//samzasql:hotpath
func (o *SlidingWindowOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	inArity := len(b.Cols)
	out := &o.outBlock
	out.shareRows(b, inArity+len(o.calls))
	copy(out.Cols, b.Cols)
	for ci, c := range o.calls {
		out.Cols[inArity+ci].Reset(c.kind, b.N, false)
	}
	nSel := len(b.Sel)
	if nSel == 0 {
		return emit(out)
	}
	b.box(o.refs)
	row := rowScratch(&o.rowScratch, b)
	replay := o.blkReplay[:0]
	for k := 0; k < nSel; k++ {
		replay = append(replay, false)
	}
	src := o.sources.keyFor(b.Stream, b.Partition)
	for ci, call := range o.calls {
		if err := o.processCallBlock(call, b, &out.Cols[inArity+ci], replay, ci == 0, src, row); err != nil {
			o.discardWrites()
			return err
		}
	}
	o.flushWrites()
	o.blkReplay = replay
	// Replayed rows (detected on call 0) are deselected; downstream stages
	// honor Sel.
	sel := o.outSel[:0]
	for k, r := range b.Sel {
		if !replay[k] {
			sel = append(sel, r)
		}
	}
	o.outSel = sel
	out.Sel = sel
	return emit(out)
}

// processCallBlock runs one analytic call over the block: columnar key
// evaluation with run detection, one batched state load and one batched
// tail-chunk load per distinct key, in-order folding, one staged write-back
// per modified key.
//
//samzasql:hotpath
func (o *SlidingWindowOp) processCallBlock(c *analyticState, b *TupleBlock, outCol *vec.Vec, replay []bool, first bool, src string, row []any) error {
	if c.partVals == nil {
		c.partVals = make([]any, len(c.partEvals))
	}
	// Pass 1: encoded partition key per selected row. Adjacent rows with the
	// same single-column key reuse the previous encoding; the group-key memo
	// catches non-adjacent repeats of int64 keys.
	pks := o.blkPks[:0]
	var prevPk []byte
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row, o.refs)
		for i, ev := range c.partEvals {
			v, err := ev(row)
			if err != nil {
				return err
			}
			c.partVals[i] = v
		}
		if len(c.partVals) == 1 && havePrev {
			if eq, ok := runEqual(c.partVals[0], prevVal); ok && eq {
				pks = append(pks, prevPk)
				continue
			}
		}
		pk, err := c.groupKey(o.obj)
		if err != nil {
			return err
		}
		pks = append(pks, pk)
		if len(c.partVals) == 1 {
			if _, ok := runEqual(c.partVals[0], c.partVals[0]); ok {
				prevPk, prevVal, havePrev = pk, c.partVals[0], true
				continue
			}
		}
		havePrev = false
	}
	o.blkPks = pks

	// Pass 2: distinct state keys in first-touch order, then one batched
	// load through the store stack.
	states := o.resetBlockStates()
	keys := o.blkKeys[:0]
	for _, pk := range pks {
		o.sbuf = appendStateKey(o.sbuf[:0], c.idx, pk)
		if _, ok := states[string(o.sbuf)]; ok {
			continue
		}
		sk := append([]byte(nil), o.sbuf...)
		states[string(sk)] = nil
		keys = append(keys, sk)
	}
	o.blkKeys = keys
	if err := o.loadStatesBatch(c, keys, states); err != nil {
		return err
	}
	if !c.spec.Unbounded {
		if err := o.loadTailsBatch(c, keys, states); err != nil {
			return err
		}
	}

	// Pass 3: fold the rows in offset order against the block-resident
	// states.
	for k, r := range b.Sel {
		o.sbuf = appendStateKey(o.sbuf[:0], c.idx, pks[k])
		ws := states[string(o.sbuf)]
		offset := b.Offsets[r]
		if ws.offsets.seen(src, offset) {
			if first {
				replay[k] = true
			}
			continue
		}
		row = b.gather(r, row, o.refs)
		ov, err := c.orderEval(row)
		if err != nil {
			return err
		}
		ts, ok := ov.(int64)
		if !ok {
			return fmt.Errorf("operators: ORDER BY value is %T", ov)
		}
		var arg any = int64(1)
		if c.argEval != nil {
			arg, err = c.argEval(row)
			if err != nil {
				return err
			}
		}
		if err := o.foldTuple(c, ws, pks[k], ts, arg, offset); err != nil {
			return err
		}
		ws.offsets = ws.offsets.update(src, offset)
		ws.dirty = true
		if err := outCol.Set(r, ws.acc.Value()); err != nil {
			return fmt.Errorf("operators: sliding window value: %w", err)
		}
	}

	// Stage once per modified key, in first-touch order (deterministic
	// changelog content for a given input).
	for _, sk := range keys {
		if ws := states[string(sk)]; ws.dirty {
			o.stageState(c, sk, sk[stateKeyPrefix:], ws)
		}
	}
	return nil
}

// loadTailsBatch makes the tail chunk image of every block state resident
// with one batched chunk read; empty deques cost nothing.
func (o *SlidingWindowOp) loadTailsBatch(c *analyticState, keys [][]byte, states map[string]*windowState) error {
	want := o.blkTails[:0]
	ckeys := o.blkChunks[:0]
	for _, sk := range keys {
		ws := states[string(sk)]
		switch {
		case ws.tailLoaded:
		case ws.tailLen == 0:
			ws.setTail(nil)
		default:
			want = append(want, ws)
			ckeys = append(ckeys, o.arenaCopy(appendChunkKey(o.kbuf[:0], c.idx, sk[stateKeyPrefix:], ws.tailSeq)))
		}
	}
	o.blkTails, o.blkChunks = want[:0], ckeys[:0]
	if len(want) == 0 {
		return nil
	}
	vals := o.blkVals[:0]
	oks := o.blkOks[:0]
	for range want {
		vals = append(vals, nil)
		oks = append(oks, false)
	}
	kv.GetMany(o.store, ckeys, vals, oks)
	o.blkVals, o.blkOks = vals[:0], oks[:0]
	for i, ws := range want {
		if !oks[i] {
			return errMissingChunk(ws.tailSeq)
		}
		img, err := trimChunk(vals[i], ws.tailLen, ws.tailSeq)
		if err != nil {
			return err
		}
		ws.setTail(img)
	}
	return nil
}

// resetBlockStates returns the cleared per-block state map; the map itself
// allocates once per operator, outside the hot path.
func (o *SlidingWindowOp) resetBlockStates() map[string]*windowState {
	if o.blkStates == nil {
		o.blkStates = make(map[string]*windowState)
	}
	for k := range o.blkStates {
		delete(o.blkStates, k)
	}
	return o.blkStates
}

// loadStatesBatch fills the block state map for the distinct state keys
// from one batched byte read.
func (o *SlidingWindowOp) loadStatesBatch(c *analyticState, keys [][]byte, states map[string]*windowState) error {
	vals := o.blkVals[:0]
	oks := o.blkOks[:0]
	for range keys {
		vals = append(vals, nil)
		oks = append(oks, false)
	}
	kv.GetMany(o.store, keys, vals, oks)
	o.blkVals, o.blkOks = vals[:0], oks[:0]
	for i, k := range keys {
		ws, err := o.decodeCallState(c, vals[i], oks[i])
		if err != nil {
			return err
		}
		states[string(k)] = ws
	}
	return nil
}

// ----- StreamAggregateOp -----

// appendWindowKey assembles the store key "w:" + bigendian(end) + kb from
// pre-encoded group-key bytes, so the group part is encoded once per distinct
// key instead of once per (row, boundary).
func appendWindowKey(buf []byte, end int64, kb []byte) []byte {
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(end))
	buf = append(buf, 'w', ':')
	buf = append(buf, e[:]...)
	return append(buf, kb...)
}

// ProcessBlock implements Operator for the streaming aggregate. Both
// modes cluster the block by group key and load each distinct key's
// accumulator set through one batched read. Unwindowed groups emit their
// updated row per input tuple (early results), in input order; windowed
// groups buffer contributions against a locally advancing watermark and
// emit every closed window once, in window-end order — the same sequence
// per-tuple watermark advances produce.
//
//samzasql:hotpath
func (o *StreamAggregateOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	out := &o.outBlock
	out.resetOut(b, o.kinds)
	if len(b.Sel) > 0 {
		var err error
		if o.window == nil {
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			err = o.processUnwindowedBlock(b, out)
		} else {
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			err = o.processWindowedBlock(b, out)
		}
		if err != nil {
			return err
		}
	}
	out.Finish()
	return emit(out)
}

// blockScratch boxes the columns the aggregate reads and sizes the gather
// row and group-key scratch for the block.
func (o *StreamAggregateOp) blockScratch(b *TupleBlock) []any {
	b.box(o.refs)
	if cap(o.keyScratch) < len(o.keyEvals)+len(o.aggs) {
		o.keyScratch = make([]any, len(o.keyEvals)+len(o.aggs))
	}
	return rowScratch(&o.rowScratch, b)
}

// loadAggStates batch-reads the distinct store keys into the block state
// map (first-touch order in keys).
func (o *StreamAggregateOp) loadAggStates(keys [][]byte, states map[string]*aggBlockState) error {
	if len(keys) == 0 {
		return nil
	}
	vals := o.blkVals[:0]
	oks := o.blkOks[:0]
	for range keys {
		vals = append(vals, nil)
		oks = append(oks, false)
	}
	kv.GetMany(o.store, keys, vals, oks)
	for i, k := range keys {
		set, offsets, err := o.decodeSet(vals[i], oks[i])
		if err != nil {
			return err
		}
		states[string(k)] = &aggBlockState{set: set, offsets: offsets}
	}
	o.blkVals, o.blkOks = vals[:0], oks[:0]
	return nil
}

func (o *StreamAggregateOp) resetBlockStates() map[string]*aggBlockState {
	states := o.blkStates
	if states == nil {
		states = make(map[string]*aggBlockState)
		o.blkStates = states
	}
	for k := range states {
		delete(states, k)
	}
	return states
}

func (o *StreamAggregateOp) processUnwindowedBlock(b *TupleBlock, out *TupleBlock) error {
	row := o.blockScratch(b)
	nk := len(o.keyEvals)
	keyVals := o.keyScratch[:nk]

	// Pass 1: per-row store keys (run-detected) plus the flat key-value
	// arena emission reads back, and the distinct-key list.
	states := o.resetBlockStates()
	kbs := o.blkKb[:0]
	keyArena := o.blkKeyVals[:0]
	keys := o.blkKeys[:0]
	var prevKey []byte
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row, o.refs)
		for i, ev := range o.keyEvals {
			v, err := ev(row)
			if err != nil {
				return fmt.Errorf("operators: group key: %w", err)
			}
			keyVals[i] = v
		}
		keyArena = append(keyArena, keyVals...)
		if nk == 1 && havePrev {
			if eq, ok := runEqual(keyVals[0], prevVal); ok && eq {
				kbs = append(kbs, prevKey)
				continue
			}
		}
		sk, err := o.encodeKey(0, keyVals)
		if err != nil {
			return err
		}
		kbs = append(kbs, sk)
		if nk == 1 {
			if _, ok := runEqual(keyVals[0], keyVals[0]); ok {
				prevKey, prevVal, havePrev = sk, keyVals[0], true
			} else {
				havePrev = false
			}
		}
		if _, ok := states[string(sk)]; !ok {
			states[string(sk)] = nil
			keys = append(keys, sk)
		}
	}
	o.blkKb, o.blkKeyVals, o.blkKeys = kbs, keyArena, keys

	// Pass 2: one batched load for every distinct group.
	if err := o.loadAggStates(keys, states); err != nil {
		return err
	}

	// Pass 3: fold in input order, emitting each group's updated row per
	// tuple (early-results policy), state written back once per group.
	src := o.sources.keyFor(b.Stream, b.Partition)
	outRow := o.keyScratch[:nk+len(o.aggs)]
	for k, r := range b.Sel {
		st := states[string(kbs[k])]
		offset := b.Offsets[r]
		if st.offsets.seen(src, offset) {
			continue
		}
		row = b.gather(r, row, o.refs)
		if err := st.set.Add(row); err != nil {
			return err
		}
		st.offsets = st.offsets.update(src, offset)
		st.dirty = true
		copy(outRow[:nk], keyArena[k*nk:(k+1)*nk])
		copy(outRow[nk:], st.set.Values())
		if err := out.AppendRow(outRow, b.Ts[r], kbs[k], offset); err != nil {
			return err
		}
	}
	for _, sk := range keys {
		st := states[string(sk)]
		if !st.dirty {
			continue
		}
		st.dirty = false
		if err := o.saveSet(sk, st.set, st.offsets); err != nil {
			return err
		}
	}
	return nil
}

func (o *StreamAggregateOp) processWindowedBlock(b *TupleBlock, out *TupleBlock) error {
	row := o.blockScratch(b)
	nk := len(o.keyEvals)
	keyVals := o.keyScratch[:nk]
	emitEvery := o.window.EmitMillis
	retain := o.window.RetainMillis
	align := o.window.AlignMillis

	// Pass 1: per-row group-key bytes (run-detected) and window timestamps,
	// plus the candidate (window end, group) store keys — every boundary
	// past the block-start watermark. Rows a later (local) watermark will
	// drop contribute unused loads, never wrong state.
	states := o.resetBlockStates()
	kbs := o.blkKb[:0]
	tss := o.blkTs[:0]
	keys := o.blkKeys[:0]
	var prevKb []byte
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row, o.refs)
		for i, ev := range o.keyEvals {
			v, err := ev(row)
			if err != nil {
				return fmt.Errorf("operators: group key: %w", err)
			}
			keyVals[i] = v
		}
		tsv, err := o.tsEval(row)
		if err != nil {
			return fmt.Errorf("operators: window timestamp: %w", err)
		}
		ts, ok := tsv.(int64)
		if !ok {
			return fmt.Errorf("operators: window timestamp is %T", tsv)
		}
		tss = append(tss, ts)
		reused := false
		if nk == 1 && havePrev {
			if eq, ok := runEqual(keyVals[0], prevVal); ok && eq {
				kbs = append(kbs, prevKb)
				reused = true
			}
		}
		if !reused {
			kb, err := o.obj.Encode(keyVals)
			if err != nil {
				return err
			}
			kbs = append(kbs, kb)
			if nk == 1 {
				if _, ok := runEqual(keyVals[0], keyVals[0]); ok {
					prevKb, prevVal, havePrev = kb, keyVals[0], true
				} else {
					havePrev = false
				}
			}
		}
		kb := kbs[len(kbs)-1]
		for e := nextBoundary(ts, emitEvery, align); e <= ts+retain; e += emitEvery {
			if e <= o.watermark {
				continue
			}
			o.blkWk = appendWindowKey(o.blkWk[:0], e, kb)
			if _, ok := states[string(o.blkWk)]; ok {
				continue
			}
			sk := append([]byte(nil), o.blkWk...)
			states[string(sk)] = nil
			keys = append(keys, sk)
		}
	}
	o.blkKb, o.blkTs, o.blkKeys = kbs, tss, keys

	// Pass 2: one batched load for every candidate window state.
	if err := o.loadAggStates(keys, states); err != nil {
		return err
	}

	// Pass 3: fold contributions against a locally advancing watermark —
	// the drop decisions tuple-by-tuple processing makes.
	src := o.sources.keyFor(b.Stream, b.Partition)
	wmLocal := o.watermark
	for k, r := range b.Sel {
		ts := tss[k]
		offset := b.Offsets[r]
		row = b.gather(r, row, o.refs)
		for e := nextBoundary(ts, emitEvery, align); e <= ts+retain; e += emitEvery {
			if e <= wmLocal {
				continue // window already closed; late contribution dropped
			}
			o.blkWk = appendWindowKey(o.blkWk[:0], e, kbs[k])
			st := states[string(o.blkWk)]
			if st.offsets.seen(src, offset) {
				continue
			}
			st.set.SetWindow(e-retain, e)
			if err := st.set.Add(row); err != nil {
				return err
			}
			st.offsets = st.offsets.update(src, offset)
			st.dirty = true
		}
		if ts > wmLocal {
			wmLocal = ts
		}
	}

	// Write the dirty window states through, then close every window the
	// block's watermark passed with one advance. Deferring the advance to
	// the block boundary emits the identical window set in the identical
	// (end-order) sequence: contributions to a window past the local
	// watermark were dropped above, exactly as mid-stream advances would
	// drop them.
	for _, sk := range keys {
		st := states[string(sk)]
		if !st.dirty {
			continue
		}
		st.dirty = false
		if err := o.saveSet(sk, st.set, st.offsets); err != nil {
			return err
		}
	}
	if wmLocal > o.watermark {
		return o.advanceWatermark(wmLocal, out, b.Offsets[b.Sel[len(b.Sel)-1]])
	}
	return nil
}

// ----- StreamRelationJoinOp -----

// ProcessBlock implements Operator. Side 0 carries stream tuples, side 1
// relation changelog tuples (regardless of SQL-side order; the physical
// planner routes accordingly). A relation-side block becomes one
// write batch and emits nothing. A stream-side block evaluates the join key
// columnarly, encodes every row's state key into one arena, resolves each
// distinct key once through one batched read decoded into a per-block row
// arena, and emits the matching combined rows in input order.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	row := rowScratch(&o.rowScratch, b)
	if side == RightSide {
		return o.processRelationBlock(b, row)
	}
	out := &o.outBlock
	out.resetOut(b, o.kinds)
	if len(b.Sel) == 0 {
		out.Finish()
		return emit(out)
	}
	b.box(o.streamRefs)

	// Pass 1: every row's state key, built back to back in the key arena
	// (adjacent equal join keys reuse the previous row's), and its slot among
	// the block's distinct keys.
	o.blkDistinct.reset(len(b.Sel))
	arena := o.keyArena[:0]
	slots := o.blkSlot[:0]
	keys := o.blkKeys[:0]
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row, o.streamRefs)
		kval, err := o.keyEval(o.combineInto(row, nil))
		if err != nil {
			return fmt.Errorf("operators: stream join key: %w", err)
		}
		if havePrev {
			if eq, ok := runEqual(kval, prevVal); ok && eq {
				slots = append(slots, slots[len(slots)-1])
				continue
			}
		}
		start := len(arena)
		if arena, err = o.appendRelKey(arena, kval); err != nil {
			return err
		}
		distinct := len(keys)
		var slot int32
		slot, keys = o.blkDistinct.slotOf(keys, arena[start:len(arena):len(arena)])
		if len(keys) == distinct {
			arena = arena[:start] // seen before: the key list holds the first copy
		}
		slots = append(slots, slot)
		_, havePrev = runEqual(kval, kval)
		prevVal = kval
	}
	o.keyArena, o.blkSlot, o.blkKeys = arena, slots, keys

	// Pass 2: resolve every distinct key with one batched read. A key whose
	// row stays nil has no relation row — the inner join drops its rows.
	rel, err := o.resolveRelBatch(keys)
	if err != nil {
		return err
	}

	// Pass 3: apply the residual, emit matches in input order — the stream
	// columns copied vector to vector, the relation row unboxed.
	streamAt, relAt := 0, o.leftArity
	if !o.StreamIsLeft {
		streamAt, relAt = o.rightArity, 0
	}
	for k, r := range b.Sel {
		relRow := rel[slots[k]]
		if relRow == nil {
			continue
		}
		row = b.gather(r, row, o.streamRefs)
		v, err := o.residual(o.combineInto(row, relRow))
		if err != nil {
			return fmt.Errorf("operators: join condition: %w", err)
		}
		if bl, ok := v.(bool); !ok || !bl {
			continue
		}
		for c := range b.Cols {
			if err := out.Cols[streamAt+c].AppendFrom(&b.Cols[c], r); err != nil {
				return err
			}
		}
		for i, x := range relRow {
			if err := out.Cols[relAt+i].Append(x); err != nil {
				return fmt.Errorf("operators: join output column %d: %w", relAt+i, err)
			}
		}
		out.appendMeta(b.Ts[r], b.Keys[r], b.Offsets[r])
	}
	out.Finish()
	return emit(out)
}

// processRelationBlock applies a block of relation changelog rows: the rows
// are encoded back to back into one value arena and handed to the store as a
// single write batch — one lock acquisition, one latency observation and one
// changelog produce for the block instead of one per row.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) processRelationBlock(b *TupleBlock, row []any) error {
	all := b.allCols()
	b.box(all)
	keys := o.keyArena[:0]
	vals := o.valArena[:0]
	ops := o.blkOps[:0]
	var err error
	for _, r := range b.Sel {
		row = b.gather(r, row, all)
		ks, vs := len(keys), len(vals)
		if keys, err = o.relationKey(keys, row); err != nil {
			return err
		}
		if vals, err = o.relCodec.AppendEncode(vals, row); err != nil {
			return err
		}
		ops = append(ops, kv.WriteOp{Key: keys[ks:len(keys):len(keys)], Value: vals[vs:len(vals):len(vals)]})
	}
	o.keyArena, o.valArena, o.blkOps = keys, vals, ops
	kv.WriteMany(o.store, ops)
	return nil
}

// resolveRelBatch returns the relation row of each distinct key (nil where
// the relation has none), index-aligned with keys, through one batched byte
// read decoded into the block's row arena.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) resolveRelBatch(keys [][]byte) ([][]any, error) {
	rel := o.blkRel[:0]
	vals := o.blkVals[:0]
	oks := o.blkOks[:0]
	for range keys {
		rel = append(rel, nil)
		vals = append(vals, nil)
		oks = append(oks, false)
	}
	o.blkRel, o.blkVals, o.blkOks = rel, vals[:0], oks[:0]
	arity := o.relCodec.Arity()
	if need := len(keys) * arity; cap(o.rowArena) < need {
		o.rowArena = make([]any, need)
	}
	kv.GetMany(o.store, keys, vals, oks)
	for i := range keys {
		if !oks[i] {
			continue
		}
		relRow := o.rowArena[i*arity : (i+1)*arity : (i+1)*arity]
		if err := o.relCodec.Decode(vals[i], relRow); err != nil {
			return nil, fmt.Errorf("operators: relation row decode: %w", err)
		}
		rel[i] = relRow
	}
	return rel, nil
}

// ----- StreamStreamJoinOp -----

// ProcessBlock implements Operator: the windowed side state stays
// range-probed per tuple (write-once keys a batched point read cannot
// serve), but dispatch and instrumentation amortize over the
// block and all matches are assembled into one output block, emitted in
// probe order.
//
//samzasql:hotpath
func (o *StreamStreamJoinOp) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	out := &o.outBlock
	out.resetOut(b, o.kinds)
	all := b.allCols()
	b.box(all)
	row := rowScratch(&o.rowScratch, b)
	for _, r := range b.Sel {
		row = b.gather(r, row, all)
		//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
		if err := o.processOne(side, row, b.Ts[r], b.Offsets[r], b.Keys[r]); err != nil {
			return err
		}
	}
	out.Finish()
	return emit(out)
}
