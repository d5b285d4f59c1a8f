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
	// metrics-carrying context, e.g. direct Decode calls in tests).
	bytesIn   *metrics.Counter
	decodeLat *metrics.Histogram

	// rowScratch is DecodeBlock's reusable decode row.
	rowScratch []any
}

// Open implements Operator, binding the scan's serde metrics.
func (s *ScanOp) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		s.bytesIn = ctx.Metrics.Counter(SerdeBytesInMetric)
		s.decodeLat = ctx.Metrics.Histogram("operator.scan." + s.Stream + ".decode-ns")
	}
	return nil
}

// Process is not used for ScanOp; scans convert raw messages via Decode.
func (s *ScanOp) Process(_ int, t *Tuple, emit Emit) error { return emit(t) }

// Decode converts one raw message into a tuple.
func (s *ScanOp) Decode(value []byte, key []byte, msgTs int64, partition int32, offset int64) (*Tuple, error) {
	start := time.Now()
	row, err := s.decodeRow(value, nil)
	if err != nil {
		return nil, fmt.Errorf("operators: scan decode (%s): %w", s.Stream, err)
	}
	if s.bytesIn != nil {
		s.bytesIn.Add(int64(len(value)))
		s.decodeLat.Observe(time.Since(start).Nanoseconds())
	}
	t := &Tuple{
		Row: row, Ts: msgTs, Key: key,
		Stream: s.Stream, Partition: partition, Offset: offset,
	}
	if s.TsIdx >= 0 && s.TsIdx < len(row) {
		if ts, ok := row[s.TsIdx].(int64); ok {
			t.Ts = ts
		}
	}
	return t, nil
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

// Sender abstracts the Samza message collector for the insert operator.
type Sender func(stream string, partition int32, key, value []byte, ts int64) error

// InsertOp encodes result rows back to Avro (the ArrayToAvro step of Figure
// 4) and sends them to the output stream. Output preserves the source
// partition unless the tuple carries an explicit key, in which case the
// broker partitions by key.
type InsertOp struct {
	Codec  *avro.Codec
	Target string
	Send   Sender
	// SendBatch, when bound, lets ProcessBlock flush a whole block's output
	// in one producer call; without it the block path sends per row.
	SendBatch BatchSender
	// KeyByTupleKey selects key-based partitioning when tuples carry keys.
	KeyByTupleKey bool

	// bytesOut counts encoded output bytes; bound at Open.
	bytesOut *metrics.Counter

	// Block-path arenas: the gather row, the (start, end) offsets of each
	// encoded row in the block slab, the outgoing message headers, and the
	// high-water slab size used to pre-size the next block's slab.
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

// Process implements Operator.
func (i *InsertOp) Process(_ int, t *Tuple, emit Emit) error {
	value, err := i.Codec.EncodeRow(t.Row)
	if err != nil {
		return fmt.Errorf("operators: insert encode (%s): %w", i.Target, err)
	}
	if i.bytesOut != nil {
		i.bytesOut.Add(int64(len(value)))
	}
	partition := t.Partition
	var key []byte
	if i.KeyByTupleKey && len(t.Key) > 0 {
		key = t.Key
		partition = -1
	}
	if err := i.Send(i.Target, partition, key, value, t.Ts); err != nil {
		return err
	}
	if emit != nil {
		return emit(t)
	}
	return nil
}
