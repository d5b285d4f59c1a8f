package operators

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// SlidingStoreName is the task store backing the sliding window operator.
const SlidingStoreName = "samzasql-window"

// chunkCap is how many contributions one stored chunk of a window
// partition's deque holds. Every chunk but the tail holds exactly chunkCap.
const chunkCap = 64

// SlidingWindowOp implements Algorithm 1 (§4.3): for each tuple it saves the
// message's contribution into local storage, purges expired contributions
// while adjusting aggregate values, folds in the current tuple, persists the
// window state, and emits the input row extended with the latest aggregate
// values downstream (ProcessBlock, block_stateful.go, runs these steps over a
// whole block, persisting each partition's state once).
//
// Where Algorithm 1 stores every message under its own key, this operator
// keeps each window partition's retained contributions as a deque ordered by
// (ts, offset) and packed into chunks of chunkCap entries, one changelog key
// per chunk ('m' keys). The window state row ('s' keys) carries the deque's
// head and tail cursors, and the cursors are authoritative: expiry is a
// cursor advance in the state row that is written anyway, a chunk is deleted
// only once every entry in it has expired, and whatever a chunk holds past
// the tail cursor is garbage (DESIGN.md, "Deviation from Algorithm 1").
//
// The state is resident: every window partition's decoded state and chunk
// images stay in the operator between blocks, and a block writes what it
// changed to the changelog of the task store only, whose inner store Open
// empties after reading the restored state out of it. The changelog is the
// state's only encoded copy, so Samza's changelog restore keeps the operator
// fault-tolerant, and per-stream offset markers make re-delivered messages
// no-ops (exactly-once output, §4.3). Every write one block causes goes down
// as a single changelog batch, so a restored state row always finds the
// chunks its cursors point into.
type SlidingWindowOp struct {
	calls    []*analyticState
	obj      serde.ObjectSerde
	sources  sourceKeys
	srcNames sourceNames

	// log takes every block's writes: the changelog of the window's task
	// store, detached at Open; nil when the store has none, and the state
	// lives in the operator only.
	log *kv.Changelog
	// err is the error of the block that failed. The resident state may hold
	// half of that block, so every later block fails with it too; a
	// restarted task restores from the changelog instead.
	err error
	// getLat, putLat and deleteLat book the state accesses under the
	// window store's metric names, as kv.Instrument does for a task store.
	getLat, putLat, deleteLat *metrics.Histogram

	// Scratch (tasks are single-goroutine): kbuf holds a chunk key, ebuf one
	// encoded entry, allbuf a whole deque being rebuilt.
	kbuf, ebuf, allbuf []byte

	// The pending write batch: chunk puts, appends and deletes and state
	// rows in the order they were caused. Keys and state rows alias arena,
	// which is reset with the batch; chunk values alias the chunk images.
	ops   []kv.WriteOp
	arena []byte

	// spare holds chunk buffers free for reuse. A buffer freed during a
	// block waits in freed until the flush: a pending write may alias it.
	spare, freed [][]byte

	// Per-block scratch (block_stateful.go): the output block and its
	// selection, the gather row, per-row replay flags, each row's state slot
	// and one call's touched slots in first-touch order.
	outBlock   TupleBlock
	outSel     []int
	rowScratch []any
	blkReplay  []bool
	blkSlots   []int32
	blkTouched []int32
}

// windowState is one window partition's state: the live accumulator, the
// retained-contribution count, the per-source applied-offset vector that
// makes re-delivered messages no-ops, and the cursors of the partition's
// contribution deque. The deque spans chunks headSeq..tailSeq; headPos
// entries of chunk headSeq have expired, chunk tailSeq holds tailLen
// entries. When the head reaches the tail chunk the expired prefix is cut
// off at once, so headSeq == tailSeq implies headPos == 0.
type windowState struct {
	acc     Accumulator
	count   int64
	offsets appliedOffsets

	headSeq, tailSeq uint64
	headPos, tailLen int

	// chunks holds the images of the full chunks headSeq..tailSeq-1, oldest
	// first, so the head is chunks[0] while it is not the tail (headOff
	// locating entry headPos). tail is chunk tailSeq's tailLen entries
	// (lastOff locating the last one).
	chunks           [][]byte
	tail             []byte
	lastOff, headOff int

	// tailStored is how many leading bytes of tail the changelog holds as
	// the whole value of chunk tailSeq, so that writing tail[tailStored:] as
	// an append brings it up to date; -1 when the changelog holds no usable
	// prefix (no chunk, bytes past the cursor, or a front trim, late insert
	// or rebuild changed the image), and the next write is a full put.
	tailStored int

	// tailDirty marks a tail image the changelog has not seen; dirty marks
	// a state modified since its last save; touched a state the current
	// block has listed.
	tailDirty, dirty, touched bool

	// inline is the builtin accumulator acc points to, kept in the state.
	inline Accum
}

// statePage is how many window states one page holds. States live in pages
// that never move, so a builtin accumulator can sit inside its state.
const statePage = 256

type analyticState struct {
	spec *validate.BoundAnalytic
	// part, order and arg read a row's PARTITION BY values, ORDER BY
	// timestamp and aggregate input (arg is the zero callInput for COUNT(*)).
	part       []callInput
	order, arg callInput
	// partVals is the scratch of evaluated PARTITION BY values (tasks are
	// single-goroutine, so one buffer per call suffices).
	partVals []any
	// newAcc builds a fresh accumulator for this call, resolved once at
	// construction so state construction stays off the UDAF registry lock;
	// builtin reports that it builds an *Accum, which a state keeps inline.
	newAcc  func() Accumulator
	builtin bool
	idx     byte
	// kind is the call's output column kind.
	kind vec.Kind

	// The call's resident window partitions, numbered in the order they
	// appear: table finds a partition key's slot, pks[slot] is the key and
	// state(slot) the state.
	table keyTable
	pks   [][]byte
	pages []*[statePage]windowState
}

// state returns the resident state of slot.
func (c *analyticState) state(slot int32) *windowState {
	return &c.pages[slot/statePage][slot%statePage]
}

// slotOf returns the slot of partition key pk, giving a key the call has
// not seen a fresh empty state and a copy of pk.
//
//samzasql:hotpath
func (c *analyticState) slotOf(pk []byte) int32 {
	n := len(c.pks)
	slot, pks := c.table.slotOf(c.pks, pk)
	if len(pks) == n {
		return slot
	}
	pks[n] = bytes.Clone(pk)
	c.pks = pks
	if int(slot)/statePage == len(c.pages) {
		c.pages = append(c.pages, new([statePage]windowState))
	}
	c.initState(c.state(slot))
	return slot
}

// initState makes ws an empty state of this call.
func (c *analyticState) initState(ws *windowState) {
	*ws = windowState{tailStored: -1}
	c.resetAcc(ws)
}

// resetAcc gives ws an empty accumulator: its inline one, reset, for a
// builtin function.
func (c *analyticState) resetAcc(ws *windowState) Accumulator {
	if c.builtin {
		ws.inline = Accum{Fn: c.spec.Fn}
		ws.acc = &ws.inline
	} else {
		ws.acc = c.newAcc()
	}
	return ws.acc
}

// callInput is one per-row input of an analytic call. A bare column reference
// over an Int64 vector is read from the vector, unboxed; any other
// expression runs its compiled evaluator over the block's boxed view. The
// zero callInput, with no expression, reads COUNT(*)'s marker input 1.
type callInput struct {
	col  int // the column a bare reference reads, or -1
	eval expr.Evaluator
	refs []int // the columns eval reads
}

func newCallInput(e expr.Expr) (callInput, error) {
	ev, err := expr.Compile(e)
	if err != nil {
		return callInput{}, err
	}
	p := callInput{col: -1, eval: ev, refs: expr.Columns(e)}
	if c, ok := e.(*expr.ColRef); ok {
		p.col = c.Idx
	}
	return p, nil
}

// int64Col returns the Int64 vector p reads unboxed in b, or nil after
// boxing the columns p's evaluator reads.
func (p *callInput) int64Col(b *TupleBlock) *vec.Vec {
	if p.eval != nil && p.col >= 0 && b.Cols[p.col].Kind == vec.Int64 {
		return &b.Cols[p.col]
	}
	b.box(p.refs)
	return nil
}

// at returns p's value in row r, where col is what int64Col returned.
//
//samzasql:hotpath
func (p *callInput) at(b *TupleBlock, col *vec.Vec, r int, row []any) (value, error) {
	switch {
	case col != nil:
		if col.IsNull(r) {
			return value{}, nil
		}
		return value{i: col.I64[r], isInt: true}, nil
	case p.eval == nil:
		return value{i: 1, isInt: true}, nil
	}
	v, err := p.eval(b.gather(r, row, p.refs))
	if err != nil {
		return value{}, err
	}
	return valueOf(v), nil
}

// value is one aggregate input: an int64 held unboxed (isInt) or any other
// value boxed in v, nil being NULL.
type value struct {
	i     int64
	v     any
	isInt bool
}

func valueOf(x any) value {
	if i, ok := x.(int64); ok {
		return value{i: i, isInt: true}
	}
	return value{v: x}
}

func (v value) addTo(acc Accumulator) error {
	if v.isInt {
		return acc.AddInt64(v.i)
	}
	return acc.Add(v.v)
}

func (v value) removeFrom(acc Accumulator) error {
	if v.isInt {
		return acc.RemoveInt64(v.i)
	}
	return acc.Remove(v.v)
}

// NewSlidingWindowOp compiles the analytic calls.
func NewSlidingWindowOp(calls []*validate.BoundAnalytic) (*SlidingWindowOp, error) {
	if len(calls) > 255 {
		return nil, fmt.Errorf("operators: too many analytic calls (%d)", len(calls))
	}
	op := &SlidingWindowOp{}
	for i, c := range calls {
		st := &analyticState{spec: c, idx: byte(i), kind: vec.KindOf(c.T), partVals: make([]any, len(c.PartitionBy))}
		for _, p := range c.PartitionBy {
			pe, err := newCallInput(p)
			if err != nil {
				return nil, err
			}
			st.part = append(st.part, pe)
		}
		var err error
		if st.order, err = newCallInput(c.OrderBy); err != nil {
			return nil, err
		}
		if c.Arg != nil {
			if st.arg, err = newCallInput(c.Arg); err != nil {
				return nil, err
			}
		}
		if st.newAcc, err = AccumCtorFor(c.Fn); err != nil {
			return nil, err
		}
		_, st.builtin = st.newAcc().(*Accum)
		op.calls = append(op.calls, st)
	}
	return op, nil
}

// Open implements Operator: it reads every window state the (restored)
// task store holds into the operator, then detaches the store's changelog,
// through which every later write goes.
func (o *SlidingWindowOp) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		prefix := "store." + SlidingStoreName + "."
		o.getLat = ctx.Metrics.Histogram(prefix + "get-ns")
		o.putLat = ctx.Metrics.Histogram(prefix + "put-ns")
		o.deleteLat = ctx.Metrics.Histogram(prefix + "delete-ns")
	}
	o.srcNames = sourceNames{}
	store := ctx.Store(SlidingStoreName)
	if err := o.restore(store); err != nil {
		return err
	}
	o.log = kv.DetachChangelog(store)
	return nil
}

// restore makes the window states store holds resident: one range read of
// the state rows, then the chunks each row's cursors point into.
func (o *SlidingWindowOp) restore(store kv.Store) error {
	for _, e := range store.Range([]byte{'s'}, []byte{'t'}, 0) {
		if len(e.Key) < 2 || int(e.Key[1]) >= len(o.calls) {
			return fmt.Errorf("operators: window state key %x names no analytic call of the plan", e.Key)
		}
		c := o.calls[e.Key[1]]
		pk := e.Key[2:]
		ws := c.state(c.slotOf(pk))
		if err := o.decodeCallState(c, ws, e.Value); err != nil {
			return err
		}
		for seq := ws.headSeq; seq <= ws.tailSeq; seq++ {
			n := chunkCap
			if seq == ws.tailSeq {
				if n = ws.tailLen; n == 0 {
					break
				}
			}
			o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, seq)
			v, ok := store.Get(o.kbuf)
			if !ok {
				return fmt.Errorf("operators: window state points at chunk %d, which the store does not hold", seq)
			}
			img, err := trimChunk(v, n, seq)
			if err != nil {
				return err
			}
			if seq < ws.tailSeq {
				ws.chunks = append(ws.chunks, append(o.chunkBuf(), img...))
				continue
			}
			ws.setTail(img)
			if len(img) == len(v) {
				ws.tailStored = len(img) // no garbage past the cursor to append behind
			}
		}
		if ws.headSeq != ws.tailSeq {
			for i := 0; i < ws.headPos; i++ {
				ws.headOff += entrySize(ws.chunks[0][ws.headOff:])
			}
		}
	}
	return nil
}

// foldTuple applies one tuple's contribution to a resident window state:
// Algorithm 1 steps 2–5 (save contribution, purge expired, fold, rebuild
// non-invertible aggregates). Replay detection and state persistence stay
// with the caller, which stages the state once per key per block. An
// UNBOUNDED frame never purges, so it keeps no contributions at all.
//
//samzasql:hotpath
func (o *SlidingWindowOp) foldTuple(c *analyticState, ws *windowState, pk []byte, ts int64, arg value, offset int64) error {
	ws.count++
	if c.spec.Unbounded {
		return arg.addTo(ws.acc)
	}
	// 2. Save the message's window contribution at its (ts, offset) place in
	// the partition's deque — the tail, unless the tuple is late.
	var err error
	o.ebuf, err = o.appendEntry(o.ebuf[:0], ts, offset, arg)
	if err != nil {
		return err
	}
	if ws.tailLen > 0 && entryBefore(o.ebuf, ws.tail[ws.lastOff:]) {
		if err := o.insertLate(c, ws, pk); err != nil {
			return err
		}
	} else {
		if ws.tailLen == chunkCap {
			o.rollTail(c, ws, pk)
		}
		ws.lastOff = len(ws.tail)
		ws.tail = append(ws.tail, o.ebuf...)
		ws.tailLen++
		ws.tailDirty = true
	}
	// 3. Purge expired contributions, adjusting aggregate values.
	rebuild, err := o.purge(c, ws, pk, ts)
	if err != nil {
		return err
	}
	// 4. Fold in the current tuple.
	if err := arg.addTo(ws.acc); err != nil {
		return err
	}
	// 5. Non-invertible aggregates (MIN/MAX, non-invertible UDAFs) rebuild
	// from the retained window after a purge.
	if rebuild {
		return o.rebuildAcc(c, ws)
	}
	return nil
}

// purge is the one expiry routine: it pops expired
// contributions off the deque's head — all but the newest FrameRows+1 for a
// ROWS frame, those older than ts - FrameMillis for a RANGE frame, ts being
// the current tuple's own — removing each from an invertible accumulator. It
// reports whether a non-invertible accumulator lost a contribution. Popping
// only advances cursors; a chunk is deleted, and its buffer freed, once its
// last entry is popped.
//
//samzasql:hotpath
func (o *SlidingWindowOp) purge(c *analyticState, ws *windowState, pk []byte, ts int64) (rebuild bool, err error) {
	var drop, cutoff int64
	if c.spec.IsRows {
		// Keep the last FrameRows+1 contributions.
		if drop = ws.count - (c.spec.FrameRows + 1); drop <= 0 {
			return false, nil
		}
	} else if cutoff = ts - c.spec.FrameMillis; cutoff <= 0 {
		// cutoff <= 0 cannot match any Unix-milli timestamp.
		return false, nil
	}
	invertible := ws.acc.Invertible()
	// front/frontN: bytes and entries popped off the tail chunk's front once
	// the head has reached it.
	front, frontN := 0, 0
	for ws.count > 0 {
		img, off := ws.tail, front
		if ws.headSeq != ws.tailSeq {
			img, off = ws.chunks[0], ws.headOff
		}
		e := img[off:]
		if c.spec.IsRows {
			if drop == 0 {
				break
			}
			drop--
		} else if entryTs(e) >= cutoff {
			break
		}
		if invertible {
			val, err := o.entryValue(e)
			if err != nil {
				return false, err
			}
			if err := val.removeFrom(ws.acc); err != nil {
				return false, err
			}
		} else {
			rebuild = true
		}
		ws.count--
		next := off + entrySize(e)
		if ws.headSeq == ws.tailSeq {
			front, frontN = next, frontN+1
			continue
		}
		ws.headPos++
		ws.headOff = next
		if ws.headPos == chunkCap {
			o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, ws.headSeq)
			o.stageDelete(o.kbuf)
			o.freed = append(o.freed, ws.chunks[0][:0])
			n := copy(ws.chunks, ws.chunks[1:])
			ws.chunks[n] = nil
			ws.chunks = ws.chunks[:n]
			ws.headSeq++
			ws.headPos, ws.headOff = 0, 0
		}
	}
	if frontN > 0 {
		n := copy(ws.tail, ws.tail[front:])
		ws.tail = ws.tail[:n]
		ws.tailLen -= frontN
		ws.lastOff -= front
		ws.tailDirty, ws.tailStored = true, -1
	}
	return rebuild, nil
}

// rebuildAcc recomputes a non-invertible accumulator from the retained
// deque, oldest contribution first.
func (o *SlidingWindowOp) rebuildAcc(c *analyticState, ws *windowState) error {
	acc := c.resetAcc(ws)
	if ws.headSeq != ws.tailSeq {
		if err := o.addEntries(acc, ws.chunks[0][ws.headOff:], chunkCap-ws.headPos); err != nil {
			return err
		}
		for _, img := range ws.chunks[1:] {
			if err := o.addEntries(acc, img, chunkCap); err != nil {
				return err
			}
		}
	}
	return o.addEntries(acc, ws.tail, ws.tailLen)
}

// addEntries folds the first n entries of img into acc.
//
//samzasql:hotpath
func (o *SlidingWindowOp) addEntries(acc Accumulator, img []byte, n int) error {
	for ; n > 0; n-- {
		val, err := o.entryValue(img)
		if err != nil {
			return err
		}
		if err := val.addTo(acc); err != nil {
			return err
		}
		img = img[entrySize(img):]
	}
	return nil
}

// rollTail closes the full tail chunk — staging the write of its image, and
// keeping the image as the deque's newest full chunk — and opens an empty
// one, which the changelog does not hold yet. The write aliases the image,
// which stays as it is until its buffer is freed after the flush.
func (o *SlidingWindowOp) rollTail(c *analyticState, ws *windowState, pk []byte) {
	o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, ws.tailSeq)
	if op, ok := tailWrite(o.arenaCopy(o.kbuf), ws.tail, ws.tailStored); ok {
		o.ops = append(o.ops, op)
	}
	ws.chunks = append(ws.chunks, ws.tail)
	ws.tailSeq++
	ws.tail = o.chunkBuf()
	ws.tailLen, ws.lastOff = 0, 0
	ws.tailDirty, ws.tailStored = false, -1
}

// chunkBuf returns an empty chunk buffer: a spare one, or a new one sized
// for a tail chunk of int64 entries holding one late entry over its count.
// Only a partition that filled a chunk gets one; a new partition's tail
// grows from nothing, so the many partitions that never fill a chunk keep
// small tails.
func (o *SlidingWindowOp) chunkBuf() []byte {
	if n := len(o.spare); n > 0 {
		b := o.spare[n-1]
		o.spare = o.spare[:n-1]
		return b
	}
	return make([]byte, 0, (chunkCap+1)*(entryHeader+8))
}

// insertLate places the entry in o.ebuf, which sorts before the deque's
// newest entry, at its (ts, offset) position. Inside the tail chunk that is
// an in-place insert (spilling the chunk's last entry into a fresh tail when
// it was full); a tuple older than everything in the tail chunk of a deque
// spanning several chunks rebuilds the whole deque.
func (o *SlidingWindowOp) insertLate(c *analyticState, ws *windowState, pk []byte) error {
	at := sortedPos(ws.tail, o.ebuf)
	if at == 0 && ws.headSeq != ws.tailSeq {
		return o.rebuildDeque(c, ws, pk)
	}
	ws.tail = spliceEntry(ws.tail, at, o.ebuf)
	ws.lastOff += len(o.ebuf)
	ws.tailLen++
	ws.tailDirty = true
	if at < ws.tailStored {
		ws.tailStored = -1 // the insert moved stored bytes
	}
	if ws.tailLen > chunkCap {
		// The spilled entry stays in the closed image's buffer, past its end.
		spill := ws.tail[ws.lastOff:]
		ws.tail = ws.tail[:ws.lastOff]
		ws.tailLen--
		o.rollTail(c, ws, pk)
		ws.tail = append(ws.tail, spill...)
		ws.tailLen, ws.tailDirty = 1, true
	}
	return nil
}

// rebuildDeque is the slow path of a late tuple: it reads every retained
// entry, merges the entry in o.ebuf in at its (ts, offset) position, and
// rewrites the deque from chunk headSeq on with the expired head prefix
// gone. The result depends only on the deque's contents, so every block size
// lays out identical chunks.
func (o *SlidingWindowOp) rebuildDeque(c *analyticState, ws *windowState, pk []byte) error {
	all := append(o.allbuf[:0], ws.chunks[0][ws.headOff:]...)
	for _, img := range ws.chunks[1:] {
		all = append(all, img...)
	}
	all = append(all, ws.tail...)
	all = spliceEntry(all, sortedPos(all, o.ebuf), o.ebuf)
	o.allbuf = all
	for i, img := range ws.chunks {
		o.freed = append(o.freed, img[:0])
		ws.chunks[i] = nil
	}
	ws.chunks = ws.chunks[:0]

	oldTail := ws.tailSeq
	ws.tailSeq, ws.headPos, ws.headOff = ws.headSeq, 0, 0
	ws.tail = ws.tail[:0]
	ws.tailLen, ws.lastOff, ws.tailStored = 0, 0, -1
	for len(all) > 0 {
		if ws.tailLen == chunkCap {
			o.rollTail(c, ws, pk)
		}
		n := entrySize(all)
		ws.lastOff = len(ws.tail)
		ws.tail = append(ws.tail, all[:n]...)
		ws.tailLen++
		all = all[n:]
	}
	ws.tailDirty = true
	// Dropping the expired prefix can leave the deque a chunk shorter.
	for seq := ws.tailSeq + 1; seq <= oldTail; seq++ {
		o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, seq)
		o.stageDelete(o.kbuf)
	}
	return nil
}

// sortedPos returns the byte offset in buf, a run of whole entries in
// (ts, offset) order, at which inserting e keeps the order: behind every
// entry that does not sort after e.
func sortedPos(buf, e []byte) int {
	at := 0
	for at < len(buf) && !entryBefore(e, buf[at:]) {
		at += entrySize(buf[at:])
	}
	return at
}

// spliceEntry inserts e into buf at byte offset at.
func spliceEntry(buf []byte, at int, e []byte) []byte {
	buf = append(buf, e...)
	copy(buf[at+len(e):], buf[at:])
	copy(buf[at:], e)
	return buf
}

// setTail installs img, exactly tailLen entries, as the tail image.
func (ws *windowState) setTail(img []byte) {
	ws.tail = append(ws.tail[:0], img...)
	ws.lastOff = 0
	for at, i := 0, 0; i < ws.tailLen; i++ {
		ws.lastOff = at
		at += entrySize(img[at:])
	}
}

// trimChunk cuts a stored chunk down to its first n entries, failing when it
// holds fewer.
func trimChunk(v []byte, n int, seq uint64) ([]byte, error) {
	end := 0
	for i := 0; i < n; i++ {
		size := entrySize(v[end:])
		if size < 0 {
			return nil, fmt.Errorf("operators: window chunk %d holds %d of the %d entries its state row counts", seq, i, n)
		}
		end += size
	}
	return v[:end], nil
}

// stageDelete appends a chunk delete to the pending batch, copying the key
// into the batch arena.
func (o *SlidingWindowOp) stageDelete(key []byte) {
	o.ops = append(o.ops, kv.WriteOp{Key: o.arenaCopy(key), Kind: kv.OpDelete})
}

// tailWrite is the write that brings the changelog's copy of a tail chunk,
// whose value is img[:stored] (stored < 0: no prefix of img), up to img: an
// append of the bytes past stored, a full put, or none when it is current.
func tailWrite(key, img []byte, stored int) (kv.WriteOp, bool) {
	switch {
	case stored < 0:
		return kv.WriteOp{Key: key, Value: img}, true
	case stored < len(img):
		return kv.WriteOp{Key: key, Value: img[stored:], Kind: kv.OpAppend}, true
	}
	return kv.WriteOp{}, false
}

// arenaCopy copies b into the batch arena. Earlier arena slices stay valid
// when the arena grows: they keep the array they were cut from.
func (o *SlidingWindowOp) arenaCopy(b []byte) []byte {
	start := len(o.arena)
	o.arena = append(o.arena, b...)
	return o.arena[start:len(o.arena):len(o.arena)]
}

// stageState queues a modified state for the next flush: the write of its
// tail chunk when the image changed — only the bytes past what the
// changelog holds, when that is a prefix — then the state row under its key,
// both encoded into the batch arena. The tail write aliases the tail, which
// no fold changes before the flush.
func (o *SlidingWindowOp) stageState(c *analyticState, pk []byte, ws *windowState) error {
	if ws.tailDirty {
		o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, ws.tailSeq)
		if op, ok := tailWrite(o.kbuf, ws.tail, ws.tailStored); ok {
			op.Key = o.arenaCopy(op.Key)
			o.ops = append(o.ops, op)
		}
		ws.tailDirty = false
		// What a restore would find: an empty tail has no prefix to append
		// behind.
		ws.tailStored = len(ws.tail)
		if ws.tailLen == 0 {
			ws.tailStored = -1
		}
	}
	ws.dirty = false
	start := len(o.arena)
	o.arena = appendStateKey(o.arena, c.idx, pk)
	sk := o.arena[start:len(o.arena):len(o.arena)]
	start = len(o.arena)
	buf, err := o.appendState(o.arena, ws)
	if err != nil {
		return fmt.Errorf("operators: window accumulator state: %w", err)
	}
	o.arena = buf
	o.ops = append(o.ops, kv.WriteOp{Key: sk, Value: o.arena[start:len(o.arena):len(o.arena)]})
	return nil
}

// flushWrites produces the pending batch to the changelog as one batch,
// booking its writes, and makes the chunk buffers the block freed spare.
func (o *SlidingWindowOp) flushWrites() {
	if o.log != nil && len(o.ops) > 0 {
		start := time.Now()
		o.log.WriteMany(o.ops)
		var deletes int64
		for i := range o.ops {
			if o.ops[i].Kind == kv.OpDelete {
				deletes++
			}
		}
		if o.putLat != nil {
			share := time.Since(start).Nanoseconds() / int64(len(o.ops))
			o.putLat.ObserveN(share, int64(len(o.ops))-deletes)
			o.deleteLat.ObserveN(share, deletes)
		}
	}
	o.ops, o.arena = o.ops[:0], o.arena[:0]
	o.spare = append(o.spare, o.freed...)
	clear(o.freed)
	o.freed = o.freed[:0]
}

// Chunk entry codec. An entry is ts (8 bytes), offset (8 bytes), a kind
// byte and the aggregate input value: kind 1 is the overwhelmingly common
// int64 argument as 8 fixed bytes, kind 0 wraps the ObjectSerde row [value]
// behind a uvarint length. Entries are self-delimiting, so a chunk is just
// its entries back to back.
const entryHeader = 17

func (o *SlidingWindowOp) appendEntry(buf []byte, ts, offset int64, arg value) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, uint64(ts))
	buf = binary.BigEndian.AppendUint64(buf, uint64(offset))
	if arg.isInt {
		buf = append(buf, 1)
		return binary.BigEndian.AppendUint64(buf, uint64(arg.i)), nil
	}
	row, err := o.obj.Encode([]any{arg.v})
	if err != nil {
		return nil, err
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	return append(buf, row...), nil
}

// entrySize returns the encoded length of the entry at the start of b, or -1
// when b does not start with a whole entry.
func entrySize(b []byte) int {
	if len(b) < entryHeader {
		return -1
	}
	n := entryHeader + 8
	if b[entryHeader-1] != 1 {
		l, w := binary.Uvarint(b[entryHeader:])
		if b[entryHeader-1] != 0 || w <= 0 || l > uint64(len(b)) {
			return -1
		}
		n = entryHeader + w + int(l)
	}
	if n > len(b) {
		return -1
	}
	return n
}

func entryTs(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

// entryBefore reports whether entry a sorts strictly before entry b in
// (ts, offset) order.
func entryBefore(a, b []byte) bool {
	if ta, tb := entryTs(a), entryTs(b); ta != tb {
		return ta < tb
	}
	return int64(binary.BigEndian.Uint64(a[8:])) < int64(binary.BigEndian.Uint64(b[8:]))
}

// entryValue returns the aggregate input value of the entry at the start of
// b (which entrySize has vetted).
func (o *SlidingWindowOp) entryValue(b []byte) (value, error) {
	if b[entryHeader-1] == 1 {
		return value{i: int64(binary.BigEndian.Uint64(b[entryHeader:])), isInt: true}, nil
	}
	l, w := binary.Uvarint(b[entryHeader:])
	row, err := o.obj.Decode(b[entryHeader+w : entryHeader+w+int(l)])
	if err != nil {
		return value{}, err
	}
	vals, ok := row.([]any)
	if !ok || len(vals) != 1 {
		return value{}, fmt.Errorf("operators: window chunk entry holds %T, want a one-value row", row)
	}
	return valueOf(vals[0]), nil
}

// appendChunkKey appends "m" + callIdx + len(pk) + pk + chunkSeq to buf. The
// length prefix keeps one partition's chunks from sharing a prefix with
// another's; the append-style helpers let the hot path reuse per-operator
// scratch buffers.
func appendChunkKey(buf []byte, idx byte, pk []byte, seq uint64) []byte {
	buf = append(buf, 'm', idx)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(pk)))
	buf = append(buf, pk...)
	return binary.BigEndian.AppendUint64(buf, seq)
}

func appendStateKey(buf []byte, idx byte, pk []byte) []byte {
	buf = append(buf, 's', idx)
	return append(buf, pk...)
}

// The state row has a fixed binary layout — uvarints for the retained
// count, the four deque cursors and the offset vector (pair count, then
// source name and last applied offset per pair) — followed by the
// accumulator's state row (Accumulator.AppendState).

// appendState appends ws's encoded state row to buf.
func (o *SlidingWindowOp) appendState(buf []byte, ws *windowState) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(ws.count))
	buf = binary.AppendUvarint(buf, ws.headSeq)
	buf = binary.AppendUvarint(buf, uint64(ws.headPos))
	buf = binary.AppendUvarint(buf, ws.tailSeq)
	buf = binary.AppendUvarint(buf, uint64(ws.tailLen))
	buf = binary.AppendUvarint(buf, uint64(len(ws.offsets)))
	for _, so := range ws.offsets {
		buf = binary.AppendUvarint(buf, uint64(len(so.src)))
		buf = append(buf, so.src...)
		buf = binary.AppendUvarint(buf, uint64(so.last))
	}
	return ws.acc.AppendState(buf)
}

// decodeCallState decodes the state row v into ws, an empty state of c.
func (o *SlidingWindowOp) decodeCallState(c *analyticState, ws *windowState, v []byte) error {
	var fields [6]uint64
	for i := range fields {
		u, w := binary.Uvarint(v)
		if w <= 0 {
			return fmt.Errorf("operators: window state row truncated at field %d", i)
		}
		fields[i], v = u, v[w:]
	}
	// Range-check the unsigned values: a cursor past 2^63 would turn negative
	// in the int fields below and slip under the bounds.
	if fields[0] > math.MaxInt64 || fields[1] > fields[3] || fields[2] >= chunkCap || fields[4] > chunkCap {
		return fmt.Errorf("operators: window state out of range (count %d, head %d+%d, tail %d+%d)",
			fields[0], fields[1], fields[2], fields[3], fields[4])
	}
	ws.count = int64(fields[0])
	ws.headSeq, ws.headPos = fields[1], int(fields[2])
	ws.tailSeq, ws.tailLen = fields[3], int(fields[4])
	for n := fields[5]; n > 0; n-- {
		l, w := binary.Uvarint(v)
		if w <= 0 || uint64(len(v)-w) < l {
			return fmt.Errorf("operators: window state offset vector truncated")
		}
		name := v[w : w+int(l)]
		last, w2 := binary.Uvarint(v[w+int(l):])
		if w2 <= 0 {
			return fmt.Errorf("operators: window state offset vector truncated")
		}
		ws.offsets = append(ws.offsets, sourceOffset{o.srcNames.intern(name), int64(last)})
		v = v[w+int(l)+w2:]
	}
	if err := ws.acc.ReadState(v); err != nil {
		return fmt.Errorf("operators: window state: %w", err)
	}
	return nil
}
