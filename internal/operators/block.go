package operators

import (
	"fmt"

	"samzasql/internal/kafka"
	"samzasql/internal/sql/expr"
	"samzasql/internal/vec"
)

// The execution model: Figure 4 routes one tuple per virtual dispatch; here
// the container drains up to BatchSize messages from one topic-partition
// into a reusable columnar TupleBlock, the scan decodes the whole block in
// one call, and each operator's ProcessBlock runs the full block per
// dispatch, refining a selection vector instead of materializing
// intermediate tuples. Selected rows flush to the producer through one
// batched send. A block of one row is the tuple-at-a-time case; there is no
// other path. Allocation discipline is per-block, not per-tuple: column
// vectors and the output byte slab are reused from block to block.
//
// Columns are kind-typed vectors (package vec), never boxed values: the scan
// decodes Avro straight into them, filters refine the selection with typed
// comparison kernels, a projection of bare columns is a permutation of
// vectors, and the insert encodes straight out of them; the sliding window
// and the stream-relation join read bare key columns from the vectors too.
// Expressions without a kernel, the stream-stream join and the aggregate
// folds read rows through the block's boxed view (gather), built lazily at
// most once per column per block.

// TupleBlock is a batch of rows in columnar layout — the tuple-as-array
// representation of Figure 4, one vector per column: the unit of work of
// every operator. Column vectors and per-row attribute slices are arenas
// owned by whoever built the block and reused across batches, as is the
// insert's output byte slab (the broker copies what it is sent).
type TupleBlock struct {
	// Stream and Partition locate the source; a polled batch always comes
	// from a single topic-partition, so they are block-level.
	Stream    string
	Partition int32
	// N is the number of rows in the block. Column vectors and per-row
	// slices are index-aligned over [0, N).
	N int
	// Cols are the column vectors, typed from the producing plan node's row
	// type; Cols[c] holds column c of every row.
	Cols []vec.Vec
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
	// rows. Within one block it only ever shrinks.
	Sel []int
	// Trace, when non-nil, collects per-stage spans for the block so the
	// sampled messages inside it can have the batch-level spans (with row
	// counts) replayed onto their traces after the block completes.
	Trace *BlockTrace

	// view is the boxed, row-oriented view of the columns that generic
	// evaluators and the stateful operators read through gather: view[c][r]
	// is row r of column c, for the rows selected when column c was boxed.
	// viewed marks the columns boxed since the block was last filled.
	view   [][]any
	viewed []bool
	// all lists every column index, for readers of whole rows.
	all []int
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
	clear(b.viewed)
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

// setArity sizes the block to arity column vectors, keeping each vector's
// arenas, and drops the boxed view.
func (b *TupleBlock) setArity(arity int) {
	if cap(b.Cols) < arity {
		b.Cols = append(make([]vec.Vec, 0, arity), b.Cols...)
		b.view = append(make([][]any, 0, arity), b.view...)
		b.viewed = make([]bool, arity)
	}
	b.Cols = b.Cols[:arity]
	b.view = b.view[:arity]
	b.viewed = b.viewed[:arity]
	clear(b.viewed)
}

// allCols lists every column of the block.
func (b *TupleBlock) allCols() []int {
	for len(b.all) < len(b.Cols) {
		b.all = append(b.all, len(b.all))
	}
	return b.all[:len(b.Cols)]
}

// box builds the boxed view of cols over the selected rows, once per column
// per block: each value is boxed no more often than a boxing scan would.
//
//samzasql:hotpath
func (b *TupleBlock) box(cols []int) {
	for _, c := range cols {
		if b.viewed[c] {
			continue
		}
		if cap(b.view[c]) < b.N {
			b.view[c] = make([]any, b.N)
		}
		v := b.view[c][:b.N]
		col := &b.Cols[c]
		for _, r := range b.Sel {
			v[r] = col.Value(r)
		}
		b.view[c] = v
		b.viewed[c] = true
	}
}

// gather copies row r's boxed values of cols (boxed first with box) into
// the reusable row scratch, giving row-oriented evaluators a view of one
// block row. Slots of other columns are left as they were.
//
//samzasql:hotpath
func (b *TupleBlock) gather(r int, row []any, cols []int) []any {
	for _, c := range cols {
		row[c] = b.view[c][r]
	}
	return row
}

// rowScratch returns scratch sized for one row of b, growing it if needed.
func rowScratch(scratch *[]any, b *TupleBlock) []any {
	if cap(*scratch) < len(b.Cols) {
		*scratch = make([]any, len(b.Cols))
	}
	return (*scratch)[:len(b.Cols)]
}

// Begin prepares the block for row-appending assembly of rows of the given
// column kinds: vectors emptied, per-row slices emptied. Stateful operators
// produce a variable number of output rows per block (joins drop
// non-matches, window emission depends on watermarks), so their output
// blocks grow by AppendRow instead of being pre-sized.
func (b *TupleBlock) Begin(stream string, partition int32, kinds []vec.Kind) {
	b.Stream = stream
	b.Partition = partition
	b.setArity(len(kinds))
	for c, k := range kinds {
		b.Cols[c].Truncate(k)
	}
	b.Ts = b.Ts[:0]
	b.Keys = b.Keys[:0]
	b.Offsets = b.Offsets[:0]
	b.Raw = b.Raw[:0]
	b.Sel = b.Sel[:0]
	b.Trace = nil
}

// resetOut begins an operator-owned output block whose source location and
// trace log come from src.
func (b *TupleBlock) resetOut(src *TupleBlock, kinds []vec.Kind) {
	b.Begin(src.Stream, src.Partition, kinds)
	b.Trace = src.Trace
}

// AppendRow adds one assembled row (len(row) must equal the block's arity),
// unboxing each value into its column vector; a value of a Go type its
// column's kind cannot hold is an error. Callers may reuse row as scratch;
// key is retained.
//
//samzasql:hotpath
func (b *TupleBlock) AppendRow(row []any, ts int64, key []byte, offset int64) error {
	for c := range b.Cols {
		if err := b.Cols[c].Append(row[c]); err != nil {
			return fmt.Errorf("operators: output column %d: %w", c, err)
		}
	}
	b.appendMeta(ts, key, offset)
	return nil
}

// appendMeta appends one row's timestamp, key and offset; the caller has
// appended its column values.
func (b *TupleBlock) appendMeta(ts int64, key []byte, offset int64) {
	b.Ts = append(b.Ts, ts)
	b.Keys = append(b.Keys, key)
	b.Offsets = append(b.Offsets, offset)
}

// Finish completes assembly: N covers the appended rows and all are
// selected. Raw stays empty — no operator downstream of a stateful stage
// reads raw source encodings.
func (b *TupleBlock) Finish() {
	b.N = len(b.Ts)
	b.SelAll()
}

// shareRows makes b a view of src's rows with arity columns: the same row
// count, per-row slices, selection and trace, and no columns yet — the
// caller shares or fills them. Nothing is copied.
func (b *TupleBlock) shareRows(src *TupleBlock, arity int) {
	b.Stream, b.Partition, b.N = src.Stream, src.Partition, src.N
	b.Ts, b.Keys, b.Offsets, b.Raw = src.Ts, src.Keys, src.Offsets, src.Raw
	b.Sel, b.Trace = src.Sel, src.Trace
	b.setArity(arity)
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

// BatchSender abstracts the Samza message collector for the insert operator:
// one call appends a whole block's output messages. The messages and the
// key/value bytes behind them are the caller's again when it returns (the
// broker copies them into the log), so a sender that keeps any must copy it.
type BatchSender func(stream string, msgs []kafka.Message) error

// FilterOp drops tuples whose condition is not TRUE (NULL filters out, per
// SQL semantics).
type FilterOp struct {
	sel selector
}

// NewFilterOp compiles the condition over input rows of the given column
// kinds into a selection kernel (kernel.go).
func NewFilterOp(cond expr.Expr, in []vec.Kind) (*FilterOp, error) {
	sel, err := compileSelector(cond, in)
	if err != nil {
		return nil, err
	}
	return &FilterOp{sel: sel}, nil
}

// Open implements Operator.
func (*FilterOp) Open(*OpContext) error { return nil }

// ProcessBlock implements Operator for FilterOp: it refines the selection
// vector in place — rows are never copied or compacted.
//
//samzasql:hotpath
func (f *FilterOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if err := f.sel(b); err != nil {
		return fmt.Errorf("operators: filter: %w", err)
	}
	return emit(b)
}

// ProjectOp computes the output expressions of a projection. An output that
// is a bare input column shares the input's vector; the others are computed
// into operator-owned vectors. When the output row type carries a timestamp
// column (TsIdx >= 0), the produced tuple's event time is refreshed from it
// so downstream windows keep working (§3.4's recommendation to preserve
// timestamps).
type ProjectOp struct {
	// src[c] is the input column output c shares, or -1 when evals[c]
	// computes it into a vector of kinds[c].
	src   []int
	evals []expr.Evaluator
	kinds []vec.Kind
	// refs are the input columns the computed outputs read; computed
	// reports whether there are any.
	refs     []int
	computed bool
	// TsIdx is the output timestamp column, or -1.
	TsIdx int
	// Identity marks a projection whose expressions are the input columns in
	// order (SELECT *): blocks then pass through unchanged.
	Identity bool

	// Arenas: the gather row and the output block, which shares the input's
	// rows and selection.
	rowScratch []any
	outBlock   TupleBlock
}

// NewProjectOp compiles the projections.
func NewProjectOp(exprs []expr.Expr, tsIdx int) (*ProjectOp, error) {
	p := &ProjectOp{TsIdx: tsIdx}
	var computed []expr.Expr
	for _, e := range exprs {
		p.kinds = append(p.kinds, vec.KindOf(e.Type()))
		if c, ok := e.(*expr.ColRef); ok {
			p.src = append(p.src, c.Idx)
			p.evals = append(p.evals, nil)
			continue
		}
		ev, err := expr.Compile(e)
		if err != nil {
			return nil, err
		}
		p.src = append(p.src, -1)
		p.evals = append(p.evals, ev)
		computed = append(computed, e)
	}
	p.refs = expr.Columns(computed...)
	p.computed = len(computed) > 0
	return p, nil
}

// Open implements Operator.
func (*ProjectOp) Open(*OpContext) error { return nil }

// ProcessBlock implements Operator for ProjectOp. The output block shares
// the input's rows and selection: bare-column outputs are the input's
// vectors (a permutation, zero-copy), computed outputs are evaluated over
// the selected rows through the boxed view and written back unboxed.
//
//samzasql:hotpath
func (p *ProjectOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	out := b
	if !p.Identity {
		out = &p.outBlock
		out.shareRows(b, len(p.src))
		if p.computed {
			if err := p.compute(b, out); err != nil {
				return err
			}
		}
		for c, s := range p.src {
			if s >= 0 {
				out.Cols[c] = b.Cols[s]
			}
		}
	}
	if p.TsIdx >= 0 && p.TsIdx < len(out.Cols) {
		// The row slices are the input's: refreshing in place is safe, no
		// stage reads the input block after it has been emitted onwards.
		if col := &out.Cols[p.TsIdx]; col.Kind == vec.Int64 && !col.Absent {
			for _, r := range out.Sel {
				if !col.IsNull(r) {
					out.Ts[r] = col.I64[r]
				}
			}
		}
	}
	return emit(out)
}

// compute evaluates the computed outputs over b's selected rows.
func (p *ProjectOp) compute(b, out *TupleBlock) error {
	for c, ev := range p.evals {
		if ev != nil {
			out.Cols[c].Reset(p.kinds[c], b.N, false)
		}
	}
	b.box(p.refs)
	row := rowScratch(&p.rowScratch, b)
	for _, r := range b.Sel {
		row = b.gather(r, row, p.refs)
		for c, ev := range p.evals {
			if ev == nil {
				continue
			}
			v, err := ev(row)
			if err != nil {
				return fmt.Errorf("operators: project: %w", err)
			}
			if err := out.Cols[c].Set(r, v); err != nil {
				return fmt.Errorf("operators: project column %d: %w", c, err)
			}
		}
	}
	return nil
}
