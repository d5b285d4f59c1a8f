package operators

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"samzasql/internal/kv"
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
// whole block, loading and persisting each partition's state once).
//
// Where Algorithm 1 stores every message under its own key, this operator
// keeps each window partition's retained contributions as a deque ordered by
// (ts, offset) and packed into chunks of chunkCap entries, one store key per
// chunk ('m' keys). The window state row ('s' keys) carries the deque's
// head and tail cursors, and the cursors are authoritative: expiry is a
// cursor advance in the state row that is written anyway, a chunk is deleted
// only once every entry in it has expired, and whatever a stored chunk holds
// past the tail cursor is garbage (DESIGN.md, "Deviation from Algorithm 1").
//
// All state lives in the task's key-value store so Samza's changelog
// snapshot/restore makes the operator fault-tolerant, and per-stream offset
// markers make re-delivered messages no-ops (exactly-once output, §4.3).
// Every store write one block causes goes down as a single kv write batch,
// which the changelog never splits, so a restored state row always finds the
// chunks its cursors point into.
type SlidingWindowOp struct {
	calls    []*analyticState
	store    kv.Store
	obj      serde.ObjectSerde
	sources  sourceKeys
	srcNames sourceNames

	// Scratch (tasks are single-goroutine; every store layer copies keys and
	// values it retains, so reuse is safe): kbuf holds a chunk key, ebuf one
	// encoded entry, allbuf a whole deque being rebuilt.
	kbuf, ebuf, allbuf []byte

	// The pending write batch: chunk puts, appends and deletes and state
	// rows in the order they were caused. Keys and values alias arena, which
	// is reset with the batch and also holds the block's partition and state
	// keys. rolled holds the whole images of chunks that filled up since the
	// last flush — the only chunks a read can want before the store has
	// them, and whose write may carry only their newest bytes.
	ops    []kv.WriteOp
	arena  []byte
	rolled []rolledChunk

	// pool recycles windowState objects (and the chunk images they own)
	// between batches.
	pool     []*windowState
	poolUsed int

	// Per-block scratch (block_stateful.go): the output block and its
	// selection, the gather row, per-row replay flags, one call's distinct
	// partition keys (found through blkTable), their state keys and states
	// in first-touch order, each row's slot among them, and the batched-read
	// slices.
	outBlock   TupleBlock
	outSel     []int
	rowScratch []any
	blkReplay  []bool
	blkTable   keyTable
	blkPks     [][]byte
	blkKeys    [][]byte
	blkStates  []*windowState
	blkSlots   []int32
	blkChunks  [][]byte
	blkVals    [][]byte
	blkOks     []bool
	blkTails   []*windowState
}

// windowState is one window partition's decoded state: the live accumulator,
// the retained-contribution count, the per-source applied-offset vector that
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

	// Chunk images, not part of the encoded state row. tail is chunk
	// tailSeq's first tailLen entries (lastOff locating the last one),
	// loaded with the state; head is chunk headSeq while it is not the tail
	// (headOff locating entry headPos), loaded on first use.
	tail, head       []byte
	lastOff, headOff int
	headLoaded       bool

	// tailStored is how many leading bytes of tail the store holds as the
	// whole value of chunk tailSeq, so that writing tail[tailStored:] as an
	// append brings it up to date; -1 when the store holds no usable
	// prefix (no chunk, bytes past the cursor, or a front trim, late insert
	// or rebuild changed the image), and the next write is a full put.
	tailStored int

	// tailDirty marks a tail image the store has not seen; dirty marks a
	// state modified since its last save.
	tailDirty, dirty bool
}

// rolledChunk is the whole image of a chunk that filled up in the pending
// batch, under its key; both alias the batch arena.
type rolledChunk struct{ key, img []byte }

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
	// construction so per-tuple state decodes stay off the UDAF registry lock.
	newAcc func() Accumulator
	idx    byte
	// kind is the call's output column kind.
	kind vec.Kind
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
		op.calls = append(op.calls, st)
	}
	return op, nil
}

// Open implements Operator.
func (o *SlidingWindowOp) Open(ctx *OpContext) error {
	o.store = ctx.Store(SlidingStoreName)
	o.srcNames = sourceNames{}
	return nil
}

// foldTuple applies one tuple's contribution to a loaded window state:
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
		return o.rebuildAcc(c, ws, pk)
	}
	return nil
}

// purge is the one expiry routine: it pops expired
// contributions off the deque's head — all but the newest FrameRows+1 for a
// ROWS frame, those older than ts - FrameMillis for a RANGE frame, ts being
// the current tuple's own — removing each from an invertible accumulator. It
// reports whether a non-invertible accumulator lost a contribution. Popping
// only advances cursors; a chunk is deleted once its last entry is popped.
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
			if err := o.loadHead(c, ws, pk); err != nil {
				return false, err
			}
			img, off = ws.head, ws.headOff
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
			ws.headSeq++
			ws.headPos, ws.headLoaded = 0, false
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
func (o *SlidingWindowOp) rebuildAcc(c *analyticState, ws *windowState, pk []byte) error {
	fresh := c.newAcc()
	if ws.headSeq != ws.tailSeq {
		if err := o.loadHead(c, ws, pk); err != nil {
			return err
		}
		if err := o.addEntries(fresh, ws.head[ws.headOff:], chunkCap-ws.headPos); err != nil {
			return err
		}
		for seq := ws.headSeq + 1; seq < ws.tailSeq; seq++ {
			img, err := o.readChunk(c, pk, seq, chunkCap)
			if err != nil {
				return err
			}
			if err := o.addEntries(fresh, img, chunkCap); err != nil {
				return err
			}
		}
	}
	if err := o.addEntries(fresh, ws.tail, ws.tailLen); err != nil {
		return err
	}
	ws.acc = fresh
	return nil
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

// rollTail closes the full tail chunk — staging the write of its image and
// keeping the image as the head when the head was in it — and opens an
// empty one, which the store does not hold yet.
func (o *SlidingWindowOp) rollTail(c *analyticState, ws *windowState, pk []byte) {
	o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, ws.tailSeq)
	key, img := o.arenaCopy(o.kbuf), o.arenaCopy(ws.tail)
	o.rolled = append(o.rolled, rolledChunk{key, img})
	if op, ok := tailWrite(key, img, ws.tailStored); ok {
		o.ops = append(o.ops, op)
	}
	if ws.headSeq == ws.tailSeq {
		ws.head = append(ws.head[:0], ws.tail...)
		ws.headOff, ws.headLoaded = 0, true
	}
	ws.tailSeq++
	ws.tail = ws.tail[:0]
	ws.tailLen, ws.lastOff = 0, 0
	ws.tailDirty, ws.tailStored = false, -1
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
		spill := append([]byte(nil), ws.tail[ws.lastOff:]...)
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
	if err := o.loadHead(c, ws, pk); err != nil {
		return err
	}
	all := append(o.allbuf[:0], ws.head[ws.headOff:]...)
	for seq := ws.headSeq + 1; seq < ws.tailSeq; seq++ {
		img, err := o.readChunk(c, pk, seq, chunkCap)
		if err != nil {
			return err
		}
		all = append(all, img...)
	}
	all = append(all, ws.tail...)
	all = spliceEntry(all, sortedPos(all, o.ebuf), o.ebuf)
	o.allbuf = all

	oldTail := ws.tailSeq
	ws.tailSeq, ws.headPos = ws.headSeq, 0
	ws.tail = ws.tail[:0]
	ws.tailLen, ws.lastOff, ws.headLoaded, ws.tailStored = 0, 0, false, -1
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

// loadHead makes the image of head chunk headSeq (not the tail) resident
// and locates entry headPos in it.
func (o *SlidingWindowOp) loadHead(c *analyticState, ws *windowState, pk []byte) error {
	if ws.headLoaded {
		return nil
	}
	img, err := o.readChunk(c, pk, ws.headSeq, chunkCap)
	if err != nil {
		return err
	}
	ws.head = append(ws.head[:0], img...)
	ws.headOff = 0
	for i := 0; i < ws.headPos; i++ {
		ws.headOff += entrySize(img[ws.headOff:])
	}
	ws.headLoaded = true
	return nil
}

// readChunk returns the first n entries of a partition's chunk seq: from
// the pending write batch when the chunk filled up since the last flush,
// from the store otherwise. The result aliases store or batch memory and is
// only valid until the next write.
func (o *SlidingWindowOp) readChunk(c *analyticState, pk []byte, seq uint64, n int) ([]byte, error) {
	o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, seq)
	var v []byte
	found := false
	for i := len(o.rolled) - 1; i >= 0 && !found; i-- {
		if r := &o.rolled[i]; bytes.Equal(r.key, o.kbuf) {
			v, found = r.img, true
		}
	}
	if !found {
		v, found = o.store.Get(o.kbuf)
	}
	if !found {
		return nil, errMissingChunk(seq)
	}
	return trimChunk(v, n, seq)
}

func errMissingChunk(seq uint64) error {
	return fmt.Errorf("operators: window state points at chunk %d, which the store does not hold", seq)
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

// tailWrite is the write that brings the store's copy of a tail chunk, whose
// value is img[:stored] (stored < 0: no prefix of img), up to img: an append
// of the bytes past stored, a full put, or none when the store is current.
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
// tail chunk when the image changed — only the bytes past what the store
// holds, when that is a prefix — then the state row encoded into the batch
// under sk, a key already in the batch arena.
func (o *SlidingWindowOp) stageState(c *analyticState, sk, pk []byte, ws *windowState) error {
	if ws.tailDirty {
		o.kbuf = appendChunkKey(o.kbuf[:0], c.idx, pk, ws.tailSeq)
		if op, ok := tailWrite(o.kbuf, ws.tail, ws.tailStored); ok {
			op.Key, op.Value = o.arenaCopy(op.Key), o.arenaCopy(op.Value)
			o.ops = append(o.ops, op)
		}
		ws.tailDirty, ws.tailStored = false, len(ws.tail)
	}
	ws.dirty = false
	start := len(o.arena)
	buf, err := o.appendState(o.arena, ws)
	if err != nil {
		return fmt.Errorf("operators: window accumulator state: %w", err)
	}
	o.arena = buf
	o.ops = append(o.ops, kv.WriteOp{Key: sk, Value: o.arena[start:len(o.arena):len(o.arena)]})
	return nil
}

// flushWrites hands the pending batch to the store as one kv write batch
// and recycles the states the batch covered.
func (o *SlidingWindowOp) flushWrites() {
	if len(o.ops) > 0 {
		kv.WriteMany(o.store, o.ops)
	}
	o.discardWrites()
}

// discardWrites drops the pending batch unwritten — the error path: a block
// that failed leaves the store as it found it.
func (o *SlidingWindowOp) discardWrites() {
	o.ops, o.arena, o.rolled = o.ops[:0], o.arena[:0], o.rolled[:0]
	o.poolUsed = 0
}

// newState returns an empty, recycled windowState for call c, with the
// state's builtin accumulator reset for reuse when it computes c's function.
func (o *SlidingWindowOp) newState(c *analyticState) *windowState {
	if o.poolUsed == len(o.pool) {
		o.pool = append(o.pool, &windowState{})
	}
	ws := o.pool[o.poolUsed]
	o.poolUsed++
	acc := ws.acc
	if a, ok := acc.(*Accum); ok && a.Fn == c.spec.Fn {
		*a = Accum{Fn: a.Fn}
	} else {
		acc = c.newAcc()
	}
	*ws = windowState{acc: acc, offsets: ws.offsets[:0], tail: ws.tail[:0], head: ws.head[:0], tailStored: -1}
	return ws
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

// decodeCallState builds a windowState from stored bytes; ok=false yields a
// fresh empty state.
func (o *SlidingWindowOp) decodeCallState(c *analyticState, v []byte, ok bool) (*windowState, error) {
	ws := o.newState(c)
	if !ok {
		return ws, nil
	}
	var fields [6]uint64
	for i := range fields {
		u, w := binary.Uvarint(v)
		if w <= 0 {
			return nil, fmt.Errorf("operators: window state row truncated at field %d", i)
		}
		fields[i], v = u, v[w:]
	}
	// Range-check the unsigned values: a cursor past 2^63 would turn negative
	// in the int fields below and slip under the bounds.
	if fields[0] > math.MaxInt64 || fields[1] > fields[3] || fields[2] >= chunkCap || fields[4] > chunkCap {
		return nil, fmt.Errorf("operators: window state out of range (count %d, head %d+%d, tail %d+%d)",
			fields[0], fields[1], fields[2], fields[3], fields[4])
	}
	ws.count = int64(fields[0])
	ws.headSeq, ws.headPos = fields[1], int(fields[2])
	ws.tailSeq, ws.tailLen = fields[3], int(fields[4])
	for n := fields[5]; n > 0; n-- {
		l, w := binary.Uvarint(v)
		if w <= 0 || uint64(len(v)-w) < l {
			return nil, fmt.Errorf("operators: window state offset vector truncated")
		}
		name := v[w : w+int(l)]
		last, w2 := binary.Uvarint(v[w+int(l):])
		if w2 <= 0 {
			return nil, fmt.Errorf("operators: window state offset vector truncated")
		}
		ws.offsets = append(ws.offsets, sourceOffset{o.srcNames.intern(name), int64(last)})
		v = v[w+int(l)+w2:]
	}
	if err := ws.acc.ReadState(v); err != nil {
		return nil, fmt.Errorf("operators: window state: %w", err)
	}
	return ws, nil
}
