package operators

import (
	"fmt"

	"samzasql/internal/kafka"
	"samzasql/internal/sql/expr"
)

// The execution model: Figure 4 routes one tuple per virtual dispatch; here
// the container drains up to BatchSize messages from one topic-partition
// into a reusable columnar TupleBlock, the scan decodes the whole block in
// one call, and each operator's ProcessBlock runs the full block per
// dispatch, refining a selection vector instead of materializing
// intermediate tuples. Selected rows flush to the producer through one
// batched send. A block of one row is the tuple-at-a-time case; there is no
// other path. Allocation discipline is per-block, not per-tuple: column
// vectors and the output byte slab amortize across the rows of a block.

// TupleBlock is a batch of rows in columnar layout — the tuple-as-array
// representation of Figure 4, one array per column: the unit of work of
// every operator. Column vectors and per-row attribute slices are arenas
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
// one call appends a whole block's output messages. Message structs are
// copied by the broker, but key/value slices are retained — senders must
// hand over freshly allocated (per-block) payload slabs.
type BatchSender func(stream string, msgs []kafka.Message) error

// FilterOp drops tuples whose condition is not TRUE (NULL filters out, per
// SQL semantics).
type FilterOp struct {
	cond expr.Evaluator
	// rowScratch is ProcessBlock's reusable gather row.
	rowScratch []any
}

// NewFilterOp compiles the condition.
func NewFilterOp(cond expr.Expr) (*FilterOp, error) {
	ev, err := expr.Compile(cond)
	if err != nil {
		return nil, err
	}
	return &FilterOp{cond: ev}, nil
}

// Open implements Operator.
func (*FilterOp) Open(*OpContext) error { return nil }

// ProcessBlock implements Operator for FilterOp: it evaluates the
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

// ProjectOp computes the output expressions of a projection. When the
// output row type carries a timestamp column (TsIdx >= 0), the produced
// tuple's event time is refreshed from it so downstream windows keep
// working (§3.4's recommendation to preserve timestamps).
type ProjectOp struct {
	evals []expr.Evaluator
	// TsIdx is the output timestamp column, or -1.
	TsIdx int
	// Identity marks a projection whose expressions are the input columns in
	// order (SELECT *): blocks then pass through unchanged instead of
	// re-evaluating column references and compacting.
	Identity bool

	// Arenas: the gather row and the operator-owned output block
	// ProcessBlock compacts selected rows into.
	rowScratch []any
	outBlock   TupleBlock
}

// NewProjectOp compiles the projections.
func NewProjectOp(exprs []expr.Expr, tsIdx int) (*ProjectOp, error) {
	evals := make([]expr.Evaluator, len(exprs))
	for i, e := range exprs {
		ev, err := expr.Compile(e)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}
	return &ProjectOp{evals: evals, TsIdx: tsIdx}, nil
}

// Open implements Operator.
func (*ProjectOp) Open(*OpContext) error { return nil }

// ProcessBlock implements Operator for ProjectOp: it evaluates the
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
		// Only the timestamp refresh is applied, for a projection whose
		// timestamp column differs from the scan's.
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
