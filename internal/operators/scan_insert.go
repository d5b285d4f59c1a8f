package operators

import (
	"fmt"
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/types"
	"samzasql/internal/vec"
)

// Serde byte counters shared by every decode/encode stage of a task: bytes
// read off the wire into tuples and bytes written back out. Operators bind
// them once at Open.
const (
	SerdeBytesInMetric  = "serde.bytes-in"
	SerdeBytesOutMetric = "serde.bytes-out"
)

// ScanOp decodes an incoming Avro message into the tuple-as-array
// representation — the AvroToArray step of Figure 4 that every SamzaSQL
// message pays and native jobs avoid (§5.1) — here straight into the block's
// kind-typed column vectors. When the source declares a timestamp column the
// event time is read from it.
type ScanOp struct {
	// TsIdx is the timestamp column index, or -1 to use the message time.
	TsIdx int
	// Stream is the source topic name (used for routing labels).
	Stream string

	// dec decodes into vectors typed from the scan's row type, skipping on
	// the wire the columns no operator of the plan reads (plan.Scan.Required)
	// and marking their vectors absent. arity is the row's column count.
	dec   *avro.ColumnDecoder
	arity int

	// Observability handles, bound at Open (nil when the op runs outside a
	// metrics-carrying context).
	bytesIn   *metrics.Counter
	decodeLat *metrics.Histogram
}

// NewScanOp compiles the scan of stream, whose messages codec decodes, into
// vectors typed from the source's row type. wanted, when non-nil, marks the
// columns some operator of the plan reads; the rest are skipped.
func NewScanOp(codec *avro.Codec, row *types.RowType, tsIdx int, stream string, wanted []bool) (*ScanOp, error) {
	dec, err := codec.NewColumnDecoder(vec.KindsOf(row), wanted)
	if err != nil {
		return nil, fmt.Errorf("operators: scan %s: %w", stream, err)
	}
	return &ScanOp{TsIdx: tsIdx, Stream: stream, dec: dec, arity: row.Arity()}, nil
}

// NewProjectedScanOp compiles the scan of stream, whose messages carry
// only the fields of codec's record marked in keep, in order: a re-keying
// stage's projected intermediate stream. Each field fills the column it
// came from, the others are absent as if skipped, so the operators above
// see the source row's layout.
func NewProjectedScanOp(codec *avro.Codec, row *types.RowType, tsIdx int, stream string, keep []bool) (*ScanOp, error) {
	dec, err := codec.NewProjectionDecoder(vec.KindsOf(row), keep)
	if err != nil {
		return nil, fmt.Errorf("operators: scan %s: %w", stream, err)
	}
	return &ScanOp{TsIdx: tsIdx, Stream: stream, dec: dec, arity: row.Arity()}, nil
}

// Open implements Opener, binding the scan's serde metrics.
func (s *ScanOp) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		s.bytesIn = ctx.Metrics.Counter(SerdeBytesInMetric)
		s.decodeLat = ctx.Metrics.Histogram("operator.scan." + s.Stream + ".decode-ns")
	}
	return nil
}

// DecodeBlock decodes the block's raw messages into its column vectors —
// the AvroToArray step of Figure 4 amortized to one virtual dispatch and
// one metrics/latency observation per block. When the source declares a
// timestamp column, event timestamps refresh from its int64 vector. The
// block arrives with Raw, Keys, Ts and Offsets filled for N rows; all rows
// become selected.
//
//samzasql:hotpath
func (s *ScanOp) DecodeBlock(b *TupleBlock) error {
	start := time.Now()
	b.setArity(s.arity)
	s.dec.Reset(b.Cols, b.N)
	var bytes int64
	for r := 0; r < b.N; r++ {
		bytes += int64(len(b.Raw[r]))
		if err := s.dec.Decode(b.Raw[r], b.Cols, r); err != nil {
			return fmt.Errorf("operators: scan decode (%s): %w", s.Stream, err)
		}
	}
	if s.TsIdx >= 0 && s.TsIdx < len(b.Cols) {
		if ts := &b.Cols[s.TsIdx]; ts.Kind == vec.Int64 && !ts.Absent {
			for r := 0; r < b.N; r++ {
				if !ts.IsNull(r) {
					b.Ts[r] = ts.I64[r]
				}
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

// InsertOp encodes result rows back to Avro (the ArrayToAvro step of Figure
// 4) straight from the block's column vectors and sends them to the output
// stream. Output preserves the source partition unless the tuple carries an
// explicit key, in which case the broker partitions by key.
type InsertOp struct {
	Codec  *avro.Codec
	Target string
	// SendBatch flushes a whole block's output in one producer call.
	SendBatch BatchSender
	// KeyByTupleKey selects key-based partitioning when tuples carry keys.
	KeyByTupleKey bool

	// enc encodes rows of the column kinds in kinds.
	enc   *avro.ColumnEncoder
	kinds []vec.Kind
	// bytesOut counts encoded output bytes; bound at Open.
	bytesOut *metrics.Counter

	// Arenas reused across blocks: the encoded rows, the (start, end)
	// offsets of each in the slab, and the outgoing message headers. The
	// broker copies what it is sent, so the slab is rewritten by the next
	// block.
	slab       []byte
	offScratch []int
	msgScratch []kafka.Message
}

// NewInsertOp compiles the insert of rows of the given column kinds into
// target, encoded by codec.
func NewInsertOp(codec *avro.Codec, kinds []vec.Kind, target string) (*InsertOp, error) {
	enc, err := codec.NewColumnEncoder(kinds)
	if err != nil {
		return nil, fmt.Errorf("operators: insert %s: %w", target, err)
	}
	return &InsertOp{Codec: codec, Target: target, enc: enc, kinds: append([]vec.Kind(nil), kinds...)}, nil
}

// Open implements Operator, binding the insert's serde metrics.
func (i *InsertOp) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		i.bytesOut = ctx.Metrics.Counter(SerdeBytesOutMetric)
	}
	return nil
}

// ProcessBlock implements Operator for InsertOp: it encodes every selected
// row into one byte slab (the ArrayToAvro step amortized across the block)
// and flushes the block's messages through one batched send. The slab and
// the message and offset scratches are reused from block to block.
//
//samzasql:hotpath
func (i *InsertOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if len(b.Sel) > 0 {
		if err := i.send(b); err != nil {
			return err
		}
	}
	if emit != nil {
		return emit(b)
	}
	return nil
}

// send encodes and sends the selected rows of b.
//
//samzasql:hotpath
func (i *InsertOp) send(b *TupleBlock) error {
	if len(b.Cols) != len(i.kinds) {
		return fmt.Errorf("operators: insert (%s): block has %d columns, planned %d", i.Target, len(b.Cols), len(i.kinds))
	}
	for c := range b.Cols {
		if b.Cols[c].Kind != i.kinds[c] {
			return fmt.Errorf("operators: insert (%s): column %d is %s, planned %s", i.Target, c, b.Cols[c].Kind, i.kinds[c])
		}
	}
	slab := i.slab[:0]
	offs := i.offScratch[:0]
	var err error
	for _, r := range b.Sel {
		start := len(slab)
		slab, err = i.enc.AppendRow(slab, b.Cols, r)
		if err != nil {
			return fmt.Errorf("operators: insert encode (%s): %w", i.Target, err)
		}
		offs = append(offs, start, len(slab))
	}
	i.slab, i.offScratch = slab, offs
	if i.bytesOut != nil {
		i.bytesOut.Add(int64(len(slab)))
	}
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
	return i.SendBatch(i.Target, msgs)
}
