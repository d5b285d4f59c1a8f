package operators

import (
	"fmt"
	"time"

	"samzasql/internal/kafka"
)

// This file implements the vectorized execution path: instead of routing
// one tuple per virtual dispatch (the tuple-at-a-time model of Figure 4),
// the container drains up to BatchSize messages from one topic-partition
// into a reusable columnar TupleBlock, the scan decodes the whole block in
// one call, and each operator's ProcessBlock runs the full block per
// dispatch, refining a selection vector instead of materializing
// intermediate tuples. Selected rows flush to the producer through one
// batched send. Allocation discipline is per-block, not per-tuple: column
// vectors and the output byte slab amortize across the rows of a block.

// TupleBlock is a batch of rows in columnar layout: the unit of work of the
// vectorized path. Column vectors and per-row attribute slices are arenas
// owned by whoever built the block and reused across batches; only the
// output byte slab is freshly allocated per block (the broker retains sent
// value slices).
type TupleBlock struct {
	// Stream and Partition locate the source; a polled batch always comes
	// from a single topic-partition, so they are block-level.
	Stream    string
	Partition int32
	// N is the number of rows decoded into the block. Column vectors and
	// per-row slices are index-aligned over [0, N).
	N int
	// Cols are the column vectors: Cols[c][r] holds column c of row r.
	Cols [][]any
	// Ts is the per-row event timestamp (Unix millis).
	Ts []int64
	// Keys holds each row's message key (nil for keyless messages).
	Keys [][]byte
	// Offsets holds each row's source offset.
	Offsets []int64
	// Raw holds each row's undecoded message value.
	Raw [][]byte
	// Sel is the selection vector: indexes of the live rows, ascending.
	// Filters refine it in place; downstream operators visit only selected
	// rows.
	Sel []int
	// Trace, when non-nil, collects per-stage spans for the block so the
	// sampled messages inside it can have the batch-level spans (with row
	// counts) replayed onto their traces after the block completes.
	Trace *BlockTrace
}

// Reset prepares the block for a new batch of n rows from one partition,
// reusing every arena. Column vectors are sized by the scan (arity is not
// known here); Raw/Keys/Ts/Offsets start empty for appending.
func (b *TupleBlock) Reset(stream string, partition int32, n int) {
	b.Stream = stream
	b.Partition = partition
	b.N = n
	b.Ts = b.Ts[:0]
	b.Keys = b.Keys[:0]
	b.Offsets = b.Offsets[:0]
	b.Raw = b.Raw[:0]
	b.Sel = b.Sel[:0]
	b.Trace = nil
}

// SelAll selects every row of the block (the state after a scan).
//
//samzasql:hotpath
func (b *TupleBlock) SelAll() {
	sel := b.Sel[:0]
	for r := 0; r < b.N; r++ {
		sel = append(sel, r)
	}
	b.Sel = sel
}

// sizeCols ensures the block has arity column vectors of length n, reusing
// capacity. One slice make per column per growth, amortized across blocks.
func (b *TupleBlock) sizeCols(arity, n int) {
	for len(b.Cols) < arity {
		b.Cols = append(b.Cols, nil)
	}
	b.Cols = b.Cols[:arity]
	for c := range b.Cols {
		if cap(b.Cols[c]) < n {
			b.Cols[c] = make([]any, n)
		}
		b.Cols[c] = b.Cols[c][:n]
	}
}

// gather copies row r's columns into the reusable row scratch, giving
// row-oriented evaluators (compiled expressions) a view of one block row.
//
//samzasql:hotpath
func (b *TupleBlock) gather(r int, row []any) []any {
	row = row[:len(b.Cols)]
	for c := range b.Cols {
		row[c] = b.Cols[c][r]
	}
	return row
}

// resetOut prepares an operator-owned output block for row-appending
// assembly: arity columns emptied, per-row vectors emptied, source location
// and trace log carried over from src. Stateful operators produce a
// variable number of output rows per block (joins drop non-matches, window
// emission depends on watermarks), so their output blocks grow by appendRow
// instead of being pre-sized.
func (b *TupleBlock) resetOut(src *TupleBlock, arity int) {
	b.Stream = src.Stream
	b.Partition = src.Partition
	for len(b.Cols) < arity {
		b.Cols = append(b.Cols, nil)
	}
	b.Cols = b.Cols[:arity]
	for c := range b.Cols {
		b.Cols[c] = b.Cols[c][:0]
	}
	b.Ts = b.Ts[:0]
	b.Keys = b.Keys[:0]
	b.Offsets = b.Offsets[:0]
	b.Raw = b.Raw[:0]
	b.Sel = b.Sel[:0]
	b.Trace = src.Trace
}

// appendRow adds one assembled row (len(row) must equal the block's arity).
// Values are copied element-wise, so callers may reuse row as scratch; key
// is retained.
//
//samzasql:hotpath
func (b *TupleBlock) appendRow(row []any, ts int64, key []byte, offset int64) {
	for c := range b.Cols {
		b.Cols[c] = append(b.Cols[c], row[c])
	}
	b.Ts = append(b.Ts, ts)
	b.Keys = append(b.Keys, key)
	b.Offsets = append(b.Offsets, offset)
}

// finishOut completes assembly: N covers the appended rows and all are
// selected. Raw stays empty — no operator downstream of a stateful stage
// reads raw source encodings.
func (b *TupleBlock) finishOut() {
	b.N = len(b.Ts)
	b.SelAll()
}

// BlockEmit passes a block to the next operator stage.
type BlockEmit func(b *TupleBlock) error

// BlockOperator is an operator with a vectorized path: ProcessBlock handles
// a whole block per call, emitting blocks downstream. Operators without it
// force the program back to the per-tuple router.
type BlockOperator interface {
	Operator
	ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error
}

// BlockSpan is one completed batch-level stage span: the stage ran once for
// the whole block, covering Rows selected rows.
type BlockSpan struct {
	Stage   string
	StartNs int64
	EndNs   int64
	Rows    int64
}

// BlockTrace accumulates the block's stage spans for replay onto sampled
// messages. Owned by the program and reused across blocks.
type BlockTrace struct {
	Spans []BlockSpan
}

// Reset clears the span log for a new block.
func (t *BlockTrace) Reset() { t.Spans = t.Spans[:0] }

// BatchSender abstracts the batched side of the Samza message collector:
// one call appends a whole block's output messages. Message structs are
// copied by the broker, but key/value slices are retained — senders must
// hand over freshly allocated (per-block) payload slabs.
type BatchSender func(stream string, msgs []kafka.Message) error

// DecodeBlock decodes the block's raw messages into its column vectors —
// the AvroToArray step of Figure 4 amortized to one virtual dispatch and
// one metrics/latency observation per block. Event timestamps refresh from
// the declared timestamp column as in Decode. The block arrives with Raw,
// Keys, Ts and Offsets filled for N rows; all rows become selected.
//
//samzasql:hotpath
func (s *ScanOp) DecodeBlock(b *TupleBlock) error {
	start := time.Now()
	arity := len(s.Codec.Schema().Fields)
	b.sizeCols(arity, b.N)
	if cap(s.rowScratch) < arity {
		s.rowScratch = make([]any, arity)
	}
	row := s.rowScratch[:arity]
	var bytes int64
	for r := 0; r < b.N; r++ {
		bytes += int64(len(b.Raw[r]))
		row, err := s.decodeRow(b.Raw[r], row)
		if err != nil {
			return fmt.Errorf("operators: scan decode (%s): %w", s.Stream, err)
		}
		for c := 0; c < arity; c++ {
			b.Cols[c][r] = row[c]
		}
		if s.TsIdx >= 0 && s.TsIdx < arity {
			if ts, ok := row[s.TsIdx].(int64); ok {
				b.Ts[r] = ts
			}
		}
	}
	if s.bytesIn != nil {
		s.bytesIn.Add(bytes)
		s.decodeLat.Observe(time.Since(start).Nanoseconds())
	}
	b.SelAll()
	return nil
}

// ProcessBlock implements BlockOperator for FilterOp: it evaluates the
// condition over each selected row and refines the selection vector in
// place — rows are never copied or compacted.
//
//samzasql:hotpath
func (f *FilterOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if cap(f.rowScratch) < len(b.Cols) {
		f.rowScratch = make([]any, len(b.Cols))
	}
	row := f.rowScratch[:len(b.Cols)]
	sel := b.Sel[:0]
	for _, r := range b.Sel {
		row = b.gather(r, row)
		v, err := f.cond(row)
		if err != nil {
			return fmt.Errorf("operators: filter: %w", err)
		}
		if keep, ok := v.(bool); ok && keep {
			sel = append(sel, r)
		}
	}
	b.Sel = sel
	return emit(b)
}

// ProcessBlock implements BlockOperator for ProjectOp: it evaluates the
// output expressions over the selected rows into an operator-owned output
// block (compacting the selection), refreshing event timestamps from the
// output timestamp column when one is declared.
//
//samzasql:hotpath
func (p *ProjectOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if p.Identity {
		// SELECT *: every expression is its own input column, so the block
		// passes through untouched — selection, columns and raw encodings
		// intact. The out counter still sees len(Sel) via WrapBlockEmit.
		// Only the timestamp refresh is applied, matching the scalar path
		// when the projection's timestamp column differs from the scan's.
		if p.TsIdx >= 0 && p.TsIdx < len(b.Cols) {
			for _, r := range b.Sel {
				if t, ok := b.Cols[p.TsIdx][r].(int64); ok {
					b.Ts[r] = t
				}
			}
		}
		return emit(b)
	}
	if cap(p.rowScratch) < len(b.Cols) {
		p.rowScratch = make([]any, len(b.Cols))
	}
	row := p.rowScratch[:len(b.Cols)]
	out := &p.outBlock
	n := len(b.Sel)
	out.Stream = b.Stream
	out.Partition = b.Partition
	out.N = n
	out.sizeCols(len(p.evals), n)
	out.Ts = out.Ts[:0]
	out.Keys = out.Keys[:0]
	out.Offsets = out.Offsets[:0]
	out.Raw = out.Raw[:0]
	out.Trace = b.Trace
	for k, r := range b.Sel {
		row = b.gather(r, row)
		ts := b.Ts[r]
		for c, ev := range p.evals {
			v, err := ev(row)
			if err != nil {
				return fmt.Errorf("operators: project: %w", err)
			}
			out.Cols[c][k] = v
		}
		if p.TsIdx >= 0 && p.TsIdx < len(p.evals) {
			if t, ok := out.Cols[p.TsIdx][k].(int64); ok {
				ts = t
			}
		}
		out.Ts = append(out.Ts, ts)
		out.Keys = append(out.Keys, b.Keys[r])
		out.Offsets = append(out.Offsets, b.Offsets[r])
	}
	out.SelAll()
	return emit(out)
}

// ProcessBlock implements BlockOperator for InsertOp: it encodes every
// selected row into one per-block byte slab (the ArrayToAvro step amortized
// across the block) and flushes the block's messages through one batched
// send when a BatchSender is bound, falling back to per-row sends
// otherwise. The slab is freshly allocated per block because the broker
// retains sent value slices; the message and offset scratches are reused.
//
//samzasql:hotpath
func (i *InsertOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if cap(i.rowScratch) < len(b.Cols) {
		i.rowScratch = make([]any, len(b.Cols))
	}
	row := i.rowScratch[:len(b.Cols)]
	slab := make([]byte, 0, i.slabHint)
	offs := i.offScratch[:0]
	var err error
	for _, r := range b.Sel {
		row = b.gather(r, row)
		start := len(slab)
		slab, err = i.Codec.AppendEncodeRow(slab, row)
		if err != nil {
			return fmt.Errorf("operators: insert encode (%s): %w", i.Target, err)
		}
		offs = append(offs, start, len(slab))
	}
	i.offScratch = offs
	if len(slab) > i.slabHint {
		i.slabHint = len(slab)
	}
	if i.bytesOut != nil {
		i.bytesOut.Add(int64(len(slab)))
	}
	if i.SendBatch != nil {
		msgs := i.msgScratch[:0]
		for k, r := range b.Sel {
			partition := b.Partition
			var key []byte
			if i.KeyByTupleKey && len(b.Keys[r]) > 0 {
				key = b.Keys[r]
				partition = -1
			}
			msgs = append(msgs, kafka.Message{
				Partition: partition,
				Key:       key,
				Value:     slab[offs[2*k]:offs[2*k+1]:offs[2*k+1]],
				Timestamp: b.Ts[r],
			})
		}
		i.msgScratch = msgs
		if len(msgs) > 0 {
			if err := i.SendBatch(i.Target, msgs); err != nil {
				return err
			}
		}
	} else {
		for k, r := range b.Sel {
			partition := b.Partition
			var key []byte
			if i.KeyByTupleKey && len(b.Keys[r]) > 0 {
				key = b.Keys[r]
				partition = -1
			}
			value := slab[offs[2*k]:offs[2*k+1]:offs[2*k+1]]
			if err := i.Send(i.Target, partition, key, value, b.Ts[r]); err != nil {
				return err
			}
		}
	}
	if emit != nil {
		return emit(b)
	}
	return nil
}

// BlockOp returns the wrapped operator's vectorized path, or nil when it
// has none (which forces the program back to per-tuple routing).
func (i *Instrumented) BlockOp() (BlockOperator, bool) {
	bop, ok := i.Op.(BlockOperator)
	return bop, ok
}

// ProcessBlock implements BlockOperator, timing the wrapped block call —
// one latency observation per block instead of per tuple. When the block
// carries a trace log, the stage's span (with its input row count) is
// appended for replay onto the block's sampled messages.
//
//samzasql:hotpath
func (i *Instrumented) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	bop, ok := i.Op.(BlockOperator)
	if !ok {
		return fmt.Errorf("operators: %s has no block path", i.name)
	}
	if i.lat == nil && b.Trace == nil {
		return bop.ProcessBlock(side, b, emit)
	}
	rows := int64(len(b.Sel))
	tr := b.Trace
	start := time.Now()
	err := bop.ProcessBlock(side, b, emit)
	d := time.Since(start).Nanoseconds()
	if i.lat != nil {
		i.lat.Observe(d)
	}
	if tr != nil {
		startNs := start.UnixNano()
		tr.Spans = append(tr.Spans, BlockSpan{Stage: i.stage, StartNs: startNs, EndNs: startNs + d, Rows: rows})
	}
	return err
}

// WrapBlockEmit returns a block emit that counts this operator's output
// rows (the emitted block's selected rows) before passing it downstream,
// keeping the "operator.<name>.out" counters identical to the scalar
// path's.
func (i *Instrumented) WrapBlockEmit(downstream BlockEmit) BlockEmit {
	return func(b *TupleBlock) error {
		if i.out != nil {
			i.out.Add(int64(len(b.Sel)))
		}
		return downstream(b)
	}
}
