// Package bench implements the paper's evaluation (§5): hand-written native
// Samza tasks for the four benchmark queries, a throughput harness that runs
// native-vs-SamzaSQL pairs across container counts, and the table/figure
// generators for Figures 5a, 5b, 5c and 6 plus the usability (lines-of-code)
// comparison the paper reports in prose.
package bench

import (
	"fmt"
	"strconv"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/samza"
	"samzasql/internal/workload"
)

// The native tasks below are written the way the paper describes its
// baseline jobs (§5.1): they operate directly on the incoming Avro bytes,
// avoiding SamzaSQL's AvroToArray/ArrayToAvro tuple transformation
// (Figure 4), and use Avro rather than a generic object serde for any local
// state. LOC markers bound each implementation for the usability table.

// loc:filter:begin

// NativeFilterTask is the hand-written equivalent of
// SELECT STREAM * FROM Orders WHERE units > 50: it reads the units field
// straight out of the wire bytes and forwards the message unmodified.
type NativeFilterTask struct {
	Output string
	codec  *avro.Codec
	out    []kafka.Message
}

// Init implements samza.StreamTask.
func (t *NativeFilterTask) Init(ctx *samza.TaskContext) error {
	t.codec = avro.MustCodec(workload.OrdersSchema())
	return nil
}

// ProcessBatch implements samza.StreamTask: the check over a whole polled
// block, the passing messages (unchanged bytes) flushed in one producer
// call, as a SamzaSQL task flushes its block's output, so the two jobs
// differ only by the tuple transformation.
//
//samzasql:hotpath
func (t *NativeFilterTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	t.out = t.out[:0]
	for i := range envs {
		env := &envs[i]
		units, err := t.codec.ReadField(env.Value, "units")
		if err != nil {
			return err
		}
		if units.(int64) > 50 {
			t.out = append(t.out, kafka.Message{Partition: env.Partition, Key: env.Key, Value: env.Value, Timestamp: env.Timestamp})
		}
	}
	if len(t.out) == 0 {
		return nil
	}
	return c.SendBatch(t.Output, t.out)
}

// loc:filter:end

// loc:project:begin

// NativeProjectTask is the hand-written equivalent of
// SELECT STREAM rowtime, productId, units FROM Orders: it copies the three
// field encodings directly from the incoming Avro message into a new one,
// never materializing a tuple.
type NativeProjectTask struct {
	Output string
	in     *avro.Codec
	out    *avro.Codec
}

// ProjectedSchema is the native project task's output schema.
func ProjectedSchema() *avro.Schema {
	return avro.Record("OrdersProjected",
		avro.F("rowtime", avro.Long()),
		avro.F("productId", avro.Long()),
		avro.F("units", avro.Long()),
	)
}

// Init implements samza.StreamTask.
func (t *NativeProjectTask) Init(ctx *samza.TaskContext) error {
	t.in = avro.MustCodec(workload.OrdersSchema())
	t.out = avro.MustCodec(ProjectedSchema())
	return nil
}

// ProcessBatch implements samza.StreamTask, one message at a time.
func (t *NativeProjectTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	for i := range envs {
		if err := t.process(envs[i], c); err != nil {
			return err
		}
	}
	return nil
}

func (t *NativeProjectTask) process(env samza.IncomingMessageEnvelope, c samza.MessageCollector) error {
	value, err := t.in.ProjectFields(env.Value, []string{"rowtime", "productId", "units"}, t.out)
	if err != nil {
		return err
	}
	return c.Send(samza.OutgoingMessageEnvelope{
		Stream:    t.Output,
		Partition: env.Partition,
		Key:       env.Key,
		Value:     value,
		Timestamp: env.Timestamp,
	})
}

// loc:project:end

// loc:join:begin

// NativeJoinTask is the hand-written equivalent of the stream-to-relation
// join of Listing 8. The Products changelog is a bootstrap input cached in
// the task's local store as raw Avro bytes; each order reads productId from
// the wire, looks the product up, decodes it with the Avro codec (the fast
// serde the paper contrasts with SamzaSQL's Kryo) and emits a hand-built
// output record. The key, the rows and the output record are built in
// per-task buffers, so a message allocates only for the boxed values its
// rows hold.
type NativeJoinTask struct {
	Output        string
	OrdersTopic   string
	ProductsTopic string
	orders        *avro.Codec
	products      *avro.Codec
	out           *avro.Codec
	store         kv.Store

	key, value          []byte
	order, product, row []any
}

// JoinedSchema is the native join task's output schema.
func JoinedSchema() *avro.Schema {
	return avro.Record("OrdersEnriched",
		avro.F("rowtime", avro.Long()),
		avro.F("orderId", avro.Long()),
		avro.F("productId", avro.Long()),
		avro.F("units", avro.Long()),
		avro.F("supplierId", avro.Long()),
	)
}

// JoinStoreName names the native join task's local store.
const JoinStoreName = "native-join"

// Init implements samza.StreamTask.
func (t *NativeJoinTask) Init(ctx *samza.TaskContext) error {
	t.orders = avro.MustCodec(workload.OrdersSchema())
	t.products = avro.MustCodec(workload.ProductsSchema())
	t.out = avro.MustCodec(JoinedSchema())
	t.store = ctx.Store(JoinStoreName)
	return nil
}

// ProcessBatch implements samza.StreamTask, one message at a time.
func (t *NativeJoinTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	for i := range envs {
		if err := t.process(envs[i], c); err != nil {
			return err
		}
	}
	return nil
}

func (t *NativeJoinTask) process(env samza.IncomingMessageEnvelope, c samza.MessageCollector) error {
	if env.Stream == t.ProductsTopic {
		// Bootstrap/changelog side: cache raw Avro bytes by key.
		t.store.Put(env.Key, env.Value)
		return nil
	}
	row, err := t.orders.DecodeRow(env.Value, t.order)
	if err != nil {
		return err
	}
	t.order = row
	t.key = strconv.AppendInt(t.key[:0], row[1].(int64), 10)
	productBytes, ok := t.store.Get(t.key)
	if !ok {
		return nil
	}
	if t.product, err = t.products.DecodeRow(productBytes, t.product); err != nil {
		return err
	}
	t.row = append(t.row[:0], row[0], row[2], row[1], row[3], t.product[2])
	if t.value, err = t.out.AppendEncodeRow(t.value[:0], t.row); err != nil {
		return err
	}
	// The broker copies the value into the log, so the buffer is free again.
	return c.Send(samza.OutgoingMessageEnvelope{
		Stream:    t.Output,
		Partition: env.Partition,
		Key:       env.Key,
		Value:     t.value,
		Timestamp: env.Timestamp,
	})
}

// loc:join:end

// loc:window:begin

// NativeSlidingWindowTask is the hand-written equivalent of the Listing 6
// sliding-window query (SUM(units) over the last window per product). It
// follows Algorithm 1 directly: store the message, purge expired entries
// from the local store, adjust the running sum, emit the extended record.
// State values use the Avro codec; the dominant cost is key-value store
// traffic, exactly as the paper observes (§5.1).
type NativeSlidingWindowTask struct {
	Output       string
	WindowMillis int64
	orders       *avro.Codec
	out          *avro.Codec
	contribution *avro.Codec
	store        kv.Store
}

// WindowedSchema is the native sliding-window output schema.
func WindowedSchema() *avro.Schema {
	return avro.Record("OrdersWindowed",
		avro.F("rowtime", avro.Long()),
		avro.F("productId", avro.Long()),
		avro.F("units", avro.Long()),
		avro.F("windowSum", avro.Long()),
	)
}

// WindowStoreName names the native window task's local store.
const WindowStoreName = "native-window"

// Init implements samza.StreamTask.
func (t *NativeSlidingWindowTask) Init(ctx *samza.TaskContext) error {
	t.orders = avro.MustCodec(workload.OrdersSchema())
	t.out = avro.MustCodec(WindowedSchema())
	t.contribution = avro.MustCodec(avro.Record("Contribution",
		avro.F("ts", avro.Long()), avro.F("units", avro.Long())))
	t.store = ctx.Store(WindowStoreName)
	return nil
}

// ProcessBatch implements samza.StreamTask, one message at a time.
func (t *NativeSlidingWindowTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	for i := range envs {
		if err := t.process(envs[i], c); err != nil {
			return err
		}
	}
	return nil
}

func (t *NativeSlidingWindowTask) process(env samza.IncomingMessageEnvelope, c samza.MessageCollector) error {
	row, err := t.orders.DecodeRow(env.Value, nil)
	if err != nil {
		return err
	}
	ts := row[0].(int64)
	productID := row[1].(int64)
	units := row[3].(int64)

	// Save the message's contribution keyed (product, ts, offset).
	prefix := fmt.Sprintf("w:%016d:", productID)
	msgKey := fmt.Sprintf("%s%016d:%016d", prefix, ts, env.Offset)
	contribution, err := t.contribution.EncodeRow([]any{ts, units})
	if err != nil {
		return err
	}
	t.store.Put([]byte(msgKey), contribution)

	// Load the running sum.
	sumKey := fmt.Sprintf("s:%d", productID)
	var sum int64
	if v, ok := t.store.Get([]byte(sumKey)); ok {
		state, err := t.contribution.DecodeRow(v, nil)
		if err != nil {
			return err
		}
		sum = state[1].(int64)
	}
	// Purge expired contributions, adjusting the sum.
	cutoff := ts - t.WindowMillis
	if cutoff > 0 {
		end := fmt.Sprintf("%s%016d:", prefix, cutoff)
		for _, e := range t.store.Range([]byte(prefix), []byte(end), 0) {
			old, err := t.contribution.DecodeRow(e.Value, nil)
			if err != nil {
				return err
			}
			sum -= old[1].(int64)
			t.store.Delete(e.Key)
		}
	}
	// Fold in the current tuple and persist the state.
	sum += units
	state, err := t.contribution.EncodeRow([]any{ts, sum})
	if err != nil {
		return err
	}
	t.store.Put([]byte(sumKey), state)

	value, err := t.out.EncodeRow([]any{ts, productID, units, sum})
	if err != nil {
		return err
	}
	return c.Send(samza.OutgoingMessageEnvelope{
		Stream:    t.Output,
		Partition: env.Partition,
		Key:       env.Key,
		Value:     value,
		Timestamp: env.Timestamp,
	})
}

// loc:window:end
