package operators

import (
	"fmt"
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
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
// message pays and native jobs avoid (§5.1). When the source declares a
// timestamp column the event time is read from it.
type ScanOp struct {
	Codec *avro.Codec
	// TsIdx is the timestamp column index, or -1 to use the message time.
	TsIdx int
	// Stream is the source topic name (used for routing labels).
	Stream string
	// Wanted, when non-nil, marks the columns some operator of the plan
	// reads (plan.Scan.Required): the scan decodes those and skips the rest
	// on the wire, leaving their slots nil. Nil decodes whole rows.
	Wanted []bool

	// Observability handles, bound at Open (nil when the op runs outside a
	// metrics-carrying context).
	bytesIn   *metrics.Counter
	decodeLat *metrics.Histogram

	// rowScratch is DecodeBlock's reusable decode row.
	rowScratch []any
}

// Open implements Opener, binding the scan's serde metrics.
func (s *ScanOp) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		s.bytesIn = ctx.Metrics.Counter(SerdeBytesInMetric)
		s.decodeLat = ctx.Metrics.Histogram("operator.scan." + s.Stream + ".decode-ns")
	}
	return nil
}

// decodeRow decodes one message into row (reused when it has the schema's
// arity), sparsely when the plan reads only some columns.
//
//samzasql:hotpath
func (s *ScanOp) decodeRow(value []byte, row []any) ([]any, error) {
	if s.Wanted != nil {
		return s.Codec.ReadFields(value, s.Wanted, row)
	}
	return s.Codec.DecodeRow(value, row)
}

// DecodeBlock decodes the block's raw messages into its column vectors —
// the AvroToArray step of Figure 4 amortized to one virtual dispatch and
// one metrics/latency observation per block. When the source declares a
// timestamp column, event timestamps refresh from it. The block arrives with
// Raw, Keys, Ts and Offsets filled for N rows; all rows become selected.
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

// InsertOp encodes result rows back to Avro (the ArrayToAvro step of Figure
// 4) and sends them to the output stream. Output preserves the source
// partition unless the tuple carries an explicit key, in which case the
// broker partitions by key.
type InsertOp struct {
	Codec  *avro.Codec
	Target string
	// SendBatch flushes a whole block's output in one producer call.
	SendBatch BatchSender
	// KeyByTupleKey selects key-based partitioning when tuples carry keys.
	KeyByTupleKey bool

	// bytesOut counts encoded output bytes; bound at Open.
	bytesOut *metrics.Counter

	// Arenas: the gather row, the (start, end) offsets of each encoded row in
	// the block slab, the outgoing message headers, and the high-water slab
	// size used to pre-size the next block's slab.
	rowScratch []any
	offScratch []int
	msgScratch []kafka.Message
	slabHint   int
}

// Open implements Operator, binding the insert's serde metrics.
func (i *InsertOp) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		i.bytesOut = ctx.Metrics.Counter(SerdeBytesOutMetric)
	}
	return nil
}

// ProcessBlock implements Operator for InsertOp: it encodes every selected
// row into one per-block byte slab (the ArrayToAvro step amortized across the
// block) and flushes the block's messages through one batched send. The slab
// is freshly allocated per block because the broker retains sent value
// slices; the message and offset scratches are reused.
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
	if emit != nil {
		return emit(b)
	}
	return nil
}
