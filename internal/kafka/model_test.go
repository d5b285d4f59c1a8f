package kafka

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"samzasql/internal/trace"
)

// logModel is the reference the segment model test checks a partition
// against: the retained records as a plain []Record in offset order, each
// naming the model's topic and partition, plus
// the segment boundaries the partition's size accounting must produce
// (rolling, retention and compaction decide on those, never on the arena
// layout).
type logModel struct {
	topic     string
	part      int32
	recs      []Record
	segs      []modelSeg // last is the active segment
	logStart  int64
	segBytes  int
	retention int
	compacted bool
}

type modelSeg struct {
	base, upper int64
	size        int
	clean       bool
}

func newLogModel(topic string, part int32, cfg TopicConfig) *logModel {
	return &logModel{
		topic:     topic,
		part:      part,
		segs:      []modelSeg{{}},
		segBytes:  cfg.SegmentBytes,
		retention: cfg.RetentionBytes,
		compacted: cfg.Compacted,
	}
}

func (m *logModel) hwm() int64 { return m.segs[len(m.segs)-1].upper }

// append stores a deep copy of msg at the next offset, rolling the active
// segment exactly when the partition does: before the record that finds it
// at or past the roll bound.
func (m *logModel) append(msg Message) int64 {
	if m.segs[len(m.segs)-1].size >= m.segBytes {
		m.segs = append(m.segs, modelSeg{base: m.hwm(), upper: m.hwm()})
	}
	active := &m.segs[len(m.segs)-1]
	r := Record{
		Stream: m.topic, Partition: m.part, Offset: active.upper, Append: msg.Append,
		Key: cloneBytes(msg.Key), Value: cloneBytes(msg.Value), Timestamp: msg.Timestamp, Trace: msg.Trace,
	}
	active.upper++
	active.size += msg.Size()
	m.recs = append(m.recs, r)
	return r.Offset
}

// retain drops head segments while the retained size exceeds the bound,
// never the active one. Compacted logs are bounded by compaction instead.
func (m *logModel) retain() {
	if m.retention <= 0 || m.compacted {
		return
	}
	total := 0
	for _, s := range m.segs {
		total += s.size
	}
	for total > m.retention && len(m.segs) > 1 {
		total -= m.segs[0].size
		m.logStart = m.segs[0].upper
		m.segs = m.segs[1:]
	}
	i := 0
	for i < len(m.recs) && m.recs[i].Offset < m.logStart {
		i++
	}
	m.recs = m.recs[i:]
}

// compact folds the closed segments into one clean survivor: a record of
// the previous survivor stays unless a newer full (non-append) record has
// its key; any other closed append stays unless a full record of its key
// follows it, and any other closed full record stays if it is its key's
// latest full record and not a tombstone. The active segment is untouched.
func (m *logModel) compact() {
	if !m.compacted || len(m.segs) < 2 {
		return
	}
	active := m.segs[len(m.segs)-1]
	cleanUpper := int64(math.MinInt64)
	if m.segs[0].clean {
		cleanUpper = m.segs[0].upper
	}
	latestFull := map[string]int64{}
	for _, r := range m.recs {
		if r.Offset >= cleanUpper && !r.Append {
			latestFull[string(r.Key)] = r.Offset
		}
	}
	survivor := modelSeg{base: m.segs[0].base, upper: active.base, clean: true}
	var kept []Record
	for _, r := range m.recs {
		full, overridden := latestFull[string(r.Key)]
		keep := true
		switch {
		case r.Offset >= active.base:
		case r.Offset < cleanUpper:
			keep = !overridden
		case r.Append:
			keep = !overridden || full < r.Offset
		default:
			keep = r.Value != nil && full == r.Offset
		}
		if keep {
			kept = append(kept, r)
			if r.Offset < active.base {
				survivor.size += r.Size()
			}
		}
	}
	m.recs = kept
	m.segs = []modelSeg{survivor, active}
}

// fetch is what a read from offset must return: an out-of-range error below
// the log start or above the high watermark, else the first max retained
// records at or past from.
func (m *logModel) fetch(from int64, max int) ([]Record, error) {
	if from < m.logStart || from > m.hwm() {
		return nil, ErrOffsetOutOfRange
	}
	var out []Record
	for _, r := range m.recs {
		if len(out) >= max {
			break
		}
		if r.Offset >= from {
			out = append(out, r)
		}
	}
	return out, nil
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte{}, b...)
}

// sameRecord compares every field, telling nil from empty keys and values:
// a nil value is a tombstone, an empty one is a value.
func sameRecord(a, b Record) bool {
	return a.Stream == b.Stream && a.Partition == b.Partition && a.Offset == b.Offset && a.Append == b.Append &&
		(a.Key == nil) == (b.Key == nil) && bytes.Equal(a.Key, b.Key) &&
		(a.Value == nil) == (b.Value == nil) && bytes.Equal(a.Value, b.Value) &&
		a.Timestamp == b.Timestamp && a.Trace == b.Trace
}

func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, model has %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s: record %d\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

// modelMessage draws a record from the shapes the framing must tell apart:
// nil, empty, one-byte-length and multi-byte-length keys and values (a nil
// value is a tombstone), full and append records, timestamps at both
// extremes, and zero, sampled and unsampled-but-non-zero trace contexts.
// Keys come from a small space so compaction has overwrites to drop and
// appends to keep behind them.
func modelMessage(rng *rand.Rand) Message {
	var msg Message
	switch rng.Intn(6) {
	case 0:
		msg.Key = nil
	case 1:
		msg.Key = []byte{}
	case 2:
		msg.Key = bytes.Repeat([]byte{'k'}, 130+rng.Intn(8))
	default:
		msg.Key = []byte(fmt.Sprintf("key-%d", rng.Intn(12)))
	}
	switch rng.Intn(6) {
	case 0:
		msg.Value = nil
	case 1:
		msg.Value = []byte{}
	case 2:
		msg.Value = bytes.Repeat([]byte{byte(rng.Intn(256))}, 128+rng.Intn(200))
	default:
		msg.Value = bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(40))
	}
	msg.Append = msg.Value != nil && rng.Intn(3) == 0
	switch rng.Intn(6) {
	case 0:
		msg.Timestamp = math.MinInt64
	case 1:
		msg.Timestamp = math.MaxInt64
	case 2:
		msg.Timestamp = -rng.Int63()
	default:
		msg.Timestamp = rng.Int63n(1 << 42)
	}
	switch rng.Intn(4) {
	case 0:
		msg.Trace = trace.Context{TraceID: rng.Uint64(), SpanID: rng.Uint64(), ParentID: rng.Uint64(), Sampled: true, StartNs: -rng.Int63()}
	case 1:
		msg.Trace = trace.Context{SpanID: rng.Uint64()}
	}
	return msg
}

// scribble overwrites a produced message's bytes in place, as a producer
// reusing its buffers on return does; the log must have kept a copy.
func scribble(msgs []Message) {
	for _, m := range msgs {
		for i := range m.Key {
			m.Key[i] ^= 0xff
		}
		for i := range m.Value {
			m.Value[i] ^= 0xff
		}
	}
}

// checkPartition requires p to hold exactly the model: watermarks, segment
// boundaries and sizes, and a full walk from the log start equal to the
// model's records.
func checkPartition(t *testing.T, what string, p *partition, m *logModel) {
	t.Helper()
	if p.highWatermark() != m.hwm() || p.startOffset() != m.logStart {
		t.Fatalf("%s: log [%d, %d), model [%d, %d)", what, p.startOffset(), p.highWatermark(), m.logStart, m.hwm())
	}
	if len(p.segments) != len(m.segs) {
		t.Fatalf("%s: %d segments, model has %d", what, len(p.segments), len(m.segs))
	}
	for i, s := range p.segments {
		want := m.segs[i]
		if s.baseOffset != want.base || s.upperOffset != want.upper || s.sizeBytes != want.size || s.clean != want.clean {
			t.Fatalf("%s: segment %d is [%d, %d) %d bytes clean=%v, model [%d, %d) %d bytes clean=%v",
				what, i, s.baseOffset, s.upperOffset, s.sizeBytes, s.clean, want.base, want.upper, want.size, want.clean)
		}
	}
	var all []Record
	for off := m.logStart; off < m.hwm(); {
		got, err := p.read(nil, off, 1+len(all)%23)
		if err != nil {
			t.Fatalf("%s: walk at %d: %v", what, off, err)
		}
		if len(got) == 0 {
			break // the rest was compacted away
		}
		all = append(all, got...)
		off = got[len(got)-1].Offset + 1
	}
	sameRecords(t, what+": full walk", all, m.recs)
}

// runLogModel drives a seeded random sequence of appends, batch appends,
// fetches, reads into a reused buffer, compactions and caller mutations
// through a partition with small segments and through the model, comparing
// every result, and the whole log at intervals.
func runLogModel(t *testing.T, cfg TopicConfig, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	// A non-zero partition, so a read that left Partition unset shows.
	p := newPartition("m", 5, cfg)
	m := newLogModel("m", 5, cfg)
	folded := map[string][]byte{} // every key's value as a restore folds it, for compacted logs
	var buf []Record
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(12); {
		case op < 3:
			msg := modelMessage(rng)
			want := m.append(msg)
			fold(folded, msg.Key, msg.Value, msg.Append)
			m.retain()
			if got := p.append(msg); got != want {
				t.Fatalf("step %d: append assigned offset %d, model %d", i, got, want)
			}
			scribble([]Message{msg})
		case op < 5:
			batch := make([]Message, 1+rng.Intn(8))
			for j := range batch {
				batch[j] = modelMessage(rng)
				batch[j].Partition = p.id // appendBatch takes the records routed to it
			}
			for j := range batch {
				m.append(batch[j])
				fold(folded, batch[j].Key, batch[j].Value, batch[j].Append)
			}
			m.retain()
			p.appendBatch(batch)
			if p.highWatermark() != m.hwm() {
				t.Fatalf("step %d: batch of %d left the log at %d, model at %d", i, len(batch), p.highWatermark(), m.hwm())
			}
			scribble(batch)
		case op < 8:
			from := m.logStart - 2 + rng.Int63n(m.hwm()-m.logStart+5)
			max := 1 + rng.Intn(40)
			want, wantErr := m.fetch(from, max)
			var got []Record
			var err error
			if op == 5 {
				var wait <-chan struct{}
				got, wait, err = p.fetch(from, max)
				if err == nil && (len(got) == 0) != (wait != nil) {
					t.Fatalf("step %d: fetch(%d) returned %d records and wait=%v", i, from, len(got), wait)
				}
			} else {
				// A reused buffer with stale headers, the way a consumer
				// reads: read must append, never look at what is there.
				buf, err = p.read(buf[:0], from, max)
				got = buf
			}
			if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
				t.Fatalf("step %d: read(%d, %d) error %v, model %v", i, from, max, err, wantErr)
			}
			sameRecords(t, fmt.Sprintf("step %d: read(%d, %d)", i, from, max), got, want)
		case op < 9:
			m.compact()
			p.compact()
		case op < 10:
			// A caller appending to a fetched key or value gets a copy;
			// the records behind it are unchanged.
			got, err := p.read(nil, m.logStart, 16)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range got {
				_ = append(r.Key, "KKKK"...)
				_ = append(r.Value, "VVVV"...)
			}
			want, _ := m.fetch(m.logStart, 16)
			again, err := p.read(nil, m.logStart, 16)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fmt.Sprintf("step %d: reread after caller appends", i), again, want)
		default:
			if hwm := m.hwm(); hwm > m.logStart {
				from := m.logStart + rng.Int63n(hwm-m.logStart)
				want, _ := m.fetch(from, math.MaxInt32)
				got, err := p.read(nil, from, math.MaxInt32)
				if err != nil {
					t.Fatal(err)
				}
				sameRecords(t, fmt.Sprintf("step %d: read across segments from %d", i, from), got, want)
			}
		}
		if i%101 == 0 {
			checkPartition(t, fmt.Sprintf("step %d", i), p, m)
		}
	}
	checkPartition(t, "final", p, m)
	if !cfg.Compacted {
		return
	}
	// Independently of the model's compaction rule: folding what the log
	// retains, as a restore does, gives every key the value folding every
	// write gave it, and a tombstoned key no value.
	m.compact()
	p.compact()
	checkPartition(t, "after final compaction", p, m)
	replayed := map[string][]byte{}
	for _, r := range m.recs {
		fold(replayed, r.Key, r.Value, r.Append)
	}
	if len(replayed) != len(folded) {
		t.Fatalf("the compacted log folds to %d keys, every write to %d", len(replayed), len(folded))
	}
	for k, want := range folded {
		if got, ok := replayed[k]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %q replays as %q (present %v), every write folds to %q", k, got, ok, want)
		}
	}
}

// fold applies one record to a key-value state the way a changelog restore
// does: a tombstone deletes, an append extends, any other record replaces.
func fold(state map[string][]byte, key, value []byte, app bool) {
	switch k := string(key); {
	case value == nil:
		delete(state, k)
	case app:
		state[k] = append(state[k], value...)
	default:
		state[k] = append([]byte{}, value...)
	}
}

// TestSegmentModel checks partitions with small segments — size-retained
// and compacted — against the plain []Record model over several seeds: every
// read must name the partition's topic and partition and carry each record's
// own offset and append flag, across dense segments and compaction
// survivors alike.
func TestSegmentModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := TopicConfig{Partitions: 1, SegmentBytes: 256 + int(seed)*64}
		if seed%2 == 0 {
			cfg.Compacted = true
		} else {
			cfg.RetentionBytes = 2048
		}
		t.Run(fmt.Sprintf("seed=%d/compacted=%v", seed, cfg.Compacted), func(t *testing.T) {
			runLogModel(t, cfg, seed, 3000)
		})
	}
}
