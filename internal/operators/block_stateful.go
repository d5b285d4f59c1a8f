package operators

import (
	"encoding/binary"
	"fmt"
	"time"

	"samzasql/internal/kv"
	"samzasql/internal/serde"
	"samzasql/internal/vec"
)

// ProcessBlock of the stateful operators: sliding window, streaming
// aggregate, stream-relation join, stream-stream join. The window and the
// aggregate share per-block group clustering — evaluate key expressions
// columnarly over the block, encode each group key into a per-block arena
// (once per run of equal adjacent keys), number the distinct keys through
// the allocation-free key table (keytable.go), load every distinct key's
// state through one batched store read (kv.GetMany), fold all of the key's
// rows, and write the state back once per key per block instead of once per
// tuple. The stream-relation join probes its in-memory relation table
// (reltable.go) once per row instead.
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
// Per analytic call it finds each row's resident window state, folds the
// rows in offset order through foldTuple, and stages each modified state
// once; everything the block wrote — chunk puts, chunk deletes, state rows,
// across all calls — then goes to the changelog as one batch. The output
// block shares the input's column vectors and rows and adds one vector per
// call; replayed rows (already-applied offsets) are deselected: re-delivered
// messages change no state and produce no output (exactly-once, §4.3).
//
//samzasql:hotpath
func (o *SlidingWindowOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if o.err != nil {
		return o.err
	}
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
	row := rowScratch(&o.rowScratch, b)
	replay := o.blkReplay[:0]
	for k := 0; k < nSel; k++ {
		replay = append(replay, false)
	}
	src := o.sources.keyFor(b.Stream, b.Partition)
	for ci, call := range o.calls {
		if err := o.processCallBlock(call, b, &out.Cols[inArity+ci], replay, ci == 0, src, row); err != nil {
			o.err = err
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

// processCallBlock runs one analytic call over the block: each row's state
// slot, in-order folding, one staged write-back per modified state, in
// first-touch order (deterministic changelog content for a given input).
// Finding the states books one get per distinct partition.
//
//samzasql:hotpath
func (o *SlidingWindowOp) processCallBlock(c *analyticState, b *TupleBlock, outCol *vec.Vec, replay []bool, first bool, src string, row []any) error {
	start := time.Now()
	slots, touched, err := o.partitionSlots(c, b, row)
	if err != nil {
		return err
	}
	book(o.getLat, start, len(touched))

	tsCol, argCol := c.order.int64Col(b), c.arg.int64Col(b)
	for k, r := range b.Sel {
		slot := slots[k]
		ws := c.state(slot)
		offset := b.Offsets[r]
		if ws.offsets.seen(src, offset) {
			if first {
				replay[k] = true
			}
			continue
		}
		ts, err := c.order.at(b, tsCol, r, row)
		if err != nil {
			return err
		}
		if !ts.isInt {
			return fmt.Errorf("operators: ORDER BY value is %T", ts.v)
		}
		arg, err := c.arg.at(b, argCol, r, row)
		if err != nil {
			return err
		}
		if err := o.foldTuple(c, ws, c.pks[slot], ts.i, arg, offset); err != nil {
			return err
		}
		ws.offsets = ws.offsets.update(src, offset)
		ws.dirty = true
		if err := ws.acc.WriteValue(outCol, r); err != nil {
			return fmt.Errorf("operators: sliding window value: %w", err)
		}
	}

	for _, slot := range touched {
		ws := c.state(slot)
		ws.touched = false
		if ws.dirty {
			if err := o.stageState(c, c.pks[slot], ws); err != nil {
				return err
			}
		}
	}
	return nil
}

// partitionSlots encodes the selected rows' partition keys and finds each
// one's resident state; it returns each row's slot and the block's distinct
// slots in first-touch order. A partition that is one bare Int64 column is
// read unboxed, and a run of equal values is looked up once; the encoding
// is the object-serde row of the partition values either way.
//
//samzasql:hotpath
func (o *SlidingWindowOp) partitionSlots(c *analyticState, b *TupleBlock, row []any) ([]int32, []int32, error) {
	var col *vec.Vec
	if len(c.part) == 1 {
		col = c.part[0].int64Col(b)
	} else {
		for i := range c.part {
			b.box(c.part[i].refs)
		}
	}
	slots, touched := o.blkSlots[:0], o.blkTouched[:0]
	var prev int64
	run := false
	for _, r := range b.Sel {
		pk := o.kbuf[:0]
		switch {
		case col == nil:
			for i := range c.part {
				p := &c.part[i]
				v, err := p.eval(b.gather(r, row, p.refs))
				if err != nil {
					return nil, nil, err
				}
				c.partVals[i] = v
			}
			buf, err := o.obj.AppendEncode(pk, c.partVals)
			if err != nil {
				return nil, nil, err
			}
			pk = buf
		case col.IsNull(r):
			run = false
			pk = serde.AppendNull(serde.AppendRowHeader(pk, 1))
		default:
			v := col.I64[r]
			if run && v == prev {
				slots = append(slots, slots[len(slots)-1])
				continue
			}
			prev, run = v, true
			pk = serde.AppendLong(serde.AppendRowHeader(pk, 1), v)
		}
		o.kbuf = pk
		slot := c.slotOf(pk)
		slots = append(slots, slot)
		if ws := c.state(slot); !ws.touched {
			ws.touched = true
			touched = append(touched, slot)
		}
	}
	o.blkSlots, o.blkTouched = slots, touched
	return slots, touched, nil
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
	out.Begin(b.Stream, b.Partition, o.kinds)
	if len(b.Sel) > 0 {
		var err error
		if o.window == nil {
			err = o.processUnwindowedBlock(b, out)
		} else {
			err = o.processWindowedBlock(b, out)
		}
		if err != nil {
			return err
		}
	}
	out.Finish()
	return emit(out)
}

// blockScratch boxes the columns the aggregate reads, sizes the gather row
// and group-key scratch for the block, and empties the distinct-key table.
func (o *StreamAggregateOp) blockScratch(b *TupleBlock) []any {
	b.box(o.refs)
	if cap(o.keyScratch) < len(o.keyEvals)+len(o.aggs) {
		o.keyScratch = make([]any, len(o.keyEvals)+len(o.aggs))
	}
	o.blkTable.reset(len(b.Sel))
	return rowScratch(&o.rowScratch, b)
}

// loadAggStates batch-reads the states of the distinct store keys, in their
// (first-touch) order.
func (o *StreamAggregateOp) loadAggStates(keys [][]byte) ([]aggBlockState, error) {
	states := o.blkStates[:0]
	vals := o.blkVals[:0]
	oks := o.blkOks[:0]
	for range keys {
		vals = append(vals, nil)
		oks = append(oks, false)
	}
	if len(keys) > 0 {
		kv.GetMany(o.store, keys, vals, oks)
	}
	for i := range keys {
		set, offsets, err := o.decodeSet(vals[i], oks[i])
		if err != nil {
			return nil, err
		}
		states = append(states, aggBlockState{set: set, offsets: offsets})
	}
	o.blkStates, o.blkVals, o.blkOks = states, vals[:0], oks[:0]
	return states, nil
}

// saveDirty writes every state the block modified through, in first-touch
// order.
func (o *StreamAggregateOp) saveDirty(keys [][]byte, states []aggBlockState) error {
	for i := range states {
		st := &states[i]
		if !st.dirty {
			continue
		}
		st.dirty = false
		if err := o.saveSet(keys[i], st.set, st.offsets); err != nil {
			return err
		}
	}
	return nil
}

func (o *StreamAggregateOp) processUnwindowedBlock(b *TupleBlock, out *TupleBlock) error {
	row := o.blockScratch(b)
	nk := len(o.keyEvals)
	keyVals := o.keyScratch[:nk]

	// Pass 1: each row's store key (run-detected), built in the key arena
	// and numbered among the block's distinct keys, plus the flat key-value
	// arena emission reads back.
	slots := o.blkSlots[:0]
	keyValArena := o.blkKeyVals[:0]
	keys := o.blkKeys[:0]
	o.keyArena = o.keyArena[:0]
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
		keyValArena = append(keyValArena, keyVals...)
		if nk == 1 && havePrev {
			if eq, ok := runEqual(keyVals[0], prevVal); ok && eq {
				slots = append(slots, slots[len(slots)-1])
				continue
			}
		}
		var err error
		if o.kbuf, err = o.obj.AppendEncode(o.kbuf[:0], keyVals); err != nil {
			return err
		}
		start := len(o.keyArena)
		o.keyArena = appendWindowKey(o.keyArena, 0, o.kbuf)
		var slot int32
		slot, keys, o.keyArena = o.blkTable.slotOfLast(keys, o.keyArena, start)
		slots = append(slots, slot)
		if nk == 1 {
			_, havePrev = runEqual(keyVals[0], keyVals[0])
			prevVal = keyVals[0]
		}
	}
	o.blkSlots, o.blkKeyVals, o.blkKeys = slots, keyValArena, keys

	// Pass 2: one batched load for every distinct group.
	states, err := o.loadAggStates(keys)
	if err != nil {
		return err
	}

	// Pass 3: fold in input order, emitting each group's updated row per
	// tuple (early-results policy), state written back once per group.
	src := o.sources.keyFor(b.Stream, b.Partition)
	outRow := o.keyScratch[:nk+len(o.aggs)]
	for k, r := range b.Sel {
		st := &states[slots[k]]
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
		copy(outRow[:nk], keyValArena[k*nk:(k+1)*nk])
		for i, a := range st.set.Accums {
			outRow[nk+i] = a.Value()
		}
		if err := out.AppendRow(outRow, b.Ts[r], keys[slots[k]], offset); err != nil {
			return err
		}
	}
	return o.saveDirty(keys, states)
}

func (o *StreamAggregateOp) processWindowedBlock(b *TupleBlock, out *TupleBlock) error {
	row := o.blockScratch(b)
	nk := len(o.keyEvals)
	keyVals := o.keyScratch[:nk]
	emitEvery := o.window.EmitMillis
	retain := o.window.RetainMillis
	align := o.window.AlignMillis

	// Pass 1: per-row window timestamps and group-key bytes (run-detected),
	// and the slot of every candidate (window end, group) store key — every
	// boundary past the block-start watermark — among the block's distinct
	// keys, in (row, boundary) order. Rows a later (local) watermark will
	// drop contribute unused loads, never wrong state.
	tss := o.blkTs[:0]
	slots := o.blkSlots[:0]
	keys := o.blkKeys[:0]
	o.keyArena = o.keyArena[:0]
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
			eq, ok := runEqual(keyVals[0], prevVal)
			reused = ok && eq
		}
		if !reused {
			if o.kbuf, err = o.obj.AppendEncode(o.kbuf[:0], keyVals); err != nil {
				return err
			}
			if nk == 1 {
				_, havePrev = runEqual(keyVals[0], keyVals[0])
				prevVal = keyVals[0]
			}
		}
		for e := nextBoundary(ts, emitEvery, align); e <= ts+retain; e += emitEvery {
			if e <= o.watermark {
				continue
			}
			start := len(o.keyArena)
			o.keyArena = appendWindowKey(o.keyArena, e, o.kbuf)
			var slot int32
			slot, keys, o.keyArena = o.blkTable.slotOfLast(keys, o.keyArena, start)
			slots = append(slots, slot)
		}
	}
	o.blkTs, o.blkSlots, o.blkKeys = tss, slots, keys

	// Pass 2: one batched load for every candidate window state.
	states, err := o.loadAggStates(keys)
	if err != nil {
		return err
	}

	// Pass 3: fold contributions against a locally advancing watermark —
	// the drop decisions tuple-by-tuple processing makes — walking the
	// boundaries in pass 1's order.
	src := o.sources.keyFor(b.Stream, b.Partition)
	wmLocal := o.watermark
	next := 0
	for k, r := range b.Sel {
		ts := tss[k]
		offset := b.Offsets[r]
		row = b.gather(r, row, o.refs)
		for e := nextBoundary(ts, emitEvery, align); e <= ts+retain; e += emitEvery {
			if e <= o.watermark {
				continue
			}
			st := &states[slots[next]]
			next++
			if e <= wmLocal {
				continue // window already closed; late contribution dropped
			}
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
	if err := o.saveDirty(keys, states); err != nil {
		return err
	}
	if wmLocal > o.watermark {
		return o.advanceWatermark(wmLocal, out, b.Offsets[b.Sel[len(b.Sel)-1]])
	}
	return nil
}

// ----- StreamRelationJoinOp -----

// ProcessBlock implements Operator. Side 0 carries stream tuples, side 1
// relation changelog tuples (regardless of SQL-side order; the physical
// planner routes accordingly). A relation-side block goes into the relation
// table and emits nothing. A stream-side block probes the table once per
// row and emits the stream block itself, refined like a filter: an inner
// join with one relation row per key keeps a stream row or drops it, in
// input order. The output shares the input's rows and stream column vectors
// and adds one vector per relation column, copied from the table at the
// matching rows; a column the relation never carried stays absent.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	if side == RightSide {
		return o.processRelationBlock(b)
	}
	t := &o.rel
	out := &o.outBlock
	out.shareRows(b, len(o.kinds))
	copy(out.Cols[o.streamAt:], b.Cols)
	for c := range t.cols {
		out.Cols[o.relAt+c].Reset(t.cols[c].Kind, b.N, t.cols[c].Absent && !t.keyFromProbe(c))
	}
	sel := o.outSel[:0]
	start := time.Now()
	for _, r := range b.Sel {
		k, null, err := o.tableKey(&o.streamKey, b, r)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		ri := t.get(k)
		if ri < 0 {
			continue
		}
		if o.residual != nil {
			ok, err := o.residualHolds(b, r, ri)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		for c := range t.cols {
			if src := &t.cols[c]; !src.Absent {
				if err := out.Cols[o.relAt+c].SetFrom(r, src, ri); err != nil {
					return err
				}
			}
		}
		if t.fixed {
			// The relation's key is the stream's, bit for bit.
			if err := out.Cols[o.relAt+t.keyCol].SetFrom(r, &b.Cols[o.streamKey.col], r); err != nil {
				return err
			}
		}
		sel = append(sel, r)
	}
	book(o.getLat, start, len(b.Sel))
	o.outSel = sel
	out.Sel = sel
	return emit(out)
}

// residualHolds evaluates the ON condition over the combined row of stream
// row r of b and relation row ri, boxed from the columns it reads.
func (o *StreamRelationJoinOp) residualHolds(b *TupleBlock, r, ri int) (bool, error) {
	row := o.cmbScratch
	for _, c := range o.resStream {
		row[o.streamAt+c] = b.Cols[c].Value(r)
	}
	for _, c := range o.resRel {
		if o.rel.keyFromProbe(c) {
			row[o.relAt+c] = b.Cols[o.streamKey.col].Value(r)
		} else {
			row[o.relAt+c] = o.rel.cols[c].Value(ri)
		}
	}
	v, err := o.residual(row)
	if err != nil {
		return false, fmt.Errorf("operators: join condition: %w", err)
	}
	bl, ok := v.(bool)
	return ok && bl, nil
}

// processRelationBlock puts every relation row with a non-NULL join key
// into the table, typed values copied vector to vector.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) processRelationBlock(b *TupleBlock) error {
	o.rel.keep(b.Cols)
	start, puts := time.Now(), 0
	for _, r := range b.Sel {
		k, null, err := o.tableKey(&o.relKey, b, r)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		if err := o.rel.put(k, b.Cols, r); err != nil {
			return err
		}
		puts++
	}
	book(o.putLat, start, puts)
	return nil
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
	out.Begin(b.Stream, b.Partition, o.kinds)
	all := b.allCols()
	b.box(all)
	row := rowScratch(&o.rowScratch, b)
	for _, r := range b.Sel {
		row = b.gather(r, row, all)
		if err := o.processOne(side, row, b.Ts[r], b.Offsets[r], b.Keys[r]); err != nil {
			return err
		}
	}
	out.Finish()
	return emit(out)
}
