package executor

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/physical"
	"samzasql/internal/vec"
	"samzasql/internal/yarn"
)

// RepartitionTask is the Samza task of a re-keying stage (§7 future work
// 1): it reads the join-key column straight from each message's wire bytes
// (never materializing the tuple) and forwards the message unchanged to the
// intermediate topic, keyed so the broker's partitioner co-locates join
// keys. Ordering is preserved per source partition only — the caveat the
// paper flags for order-sensitive downstream queries.
type RepartitionTask struct {
	Spec *physical.RepartitionSpec
	// Partitions is the target topic's partition count, letting the
	// vectorized path group a batch by destination partition. Zero (unknown)
	// keeps batches unsplit with broker-side key hashing.
	Partitions int32

	// perPart is the per-destination message grouping reused across batches.
	perPart [][]kafka.Message
	// The batched key read, compiled on first use: a decoder of the key
	// field alone into keyCols (an Int64 or String vector for a long or
	// string field, the boxed escape vector otherwise), and the arena the
	// batch's key bytes are formatted into, reused across batches — the
	// broker copies what it is sent.
	keyDec   *avro.ColumnDecoder
	keyIdx   int
	keyCols  []vec.Vec
	keyArena []byte
}

// Init implements samza.StreamTask.
func (t *RepartitionTask) Init(*samza.TaskContext) error { return nil }

// appendRepartitionKey appends the re-keying value v to dst as the bytes
// the broker hashes: the same text fmt.Sprintf("%v") produces, with the
// common scalar types formatted via strconv.
func appendRepartitionKey(dst []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case string:
		return append(dst, x...)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(dst, x)
	}
	return fmt.Appendf(dst, "%v", v)
}

// compileKeyRead builds the batched key decoder. A long or string key field
// is decoded into a typed vector; any other field goes through the boxed
// decode ReadField runs, so every field reads and fails as ReadField does.
func (t *RepartitionTask) compileKeyRead() error {
	schema := t.Spec.Codec.Schema()
	t.keyIdx = schema.FieldIndex(t.Spec.KeyCol)
	if t.keyIdx < 0 {
		return fmt.Errorf("avro: record %q has no field %q", schema.Name, t.Spec.KeyCol)
	}
	kinds := make([]vec.Kind, len(schema.Fields))
	wanted := make([]bool, len(schema.Fields))
	wanted[t.keyIdx] = true
	switch schema.Fields[t.keyIdx].Schema.Kind {
	case avro.KindLong:
		kinds[t.keyIdx] = vec.Int64
	case avro.KindString:
		kinds[t.keyIdx] = vec.String
	}
	dec, err := t.Spec.Codec.NewColumnDecoder(kinds, wanted)
	if err != nil {
		return err
	}
	t.keyDec, t.keyCols = dec, make([]vec.Vec, len(kinds))
	return nil
}

// appendKey decodes envelope r's key field into row r of the key vectors
// and appends the key's bytes to the arena: appendRepartitionKey of the
// value ReadField returns.
//
//samzasql:hotpath
func (t *RepartitionTask) appendKey(value []byte, r int) error {
	if err := t.keyDec.Decode(value, t.keyCols, r); err != nil {
		return err
	}
	col := &t.keyCols[t.keyIdx]
	switch {
	case col.IsNull(r):
		t.keyArena = appendRepartitionKey(t.keyArena, nil)
	case col.Kind == vec.Int64:
		t.keyArena = strconv.AppendInt(t.keyArena, col.I64[r], 10)
	case col.Kind == vec.String:
		t.keyArena = append(t.keyArena, col.Str(r)...)
	default:
		t.keyArena = appendRepartitionKey(t.keyArena, col.Any[r])
	}
	return nil
}

// ProcessBatch implements samza.StreamTask: the whole polled block is
// re-keyed in one pass and routed by destination partition — the messages
// bound for each target partition flush through one SendBatch call (the
// same FNV key hash the broker applies, so content and per-partition order
// are identical to per-message sends). An unknown partition count falls
// back to broker-side partitioning.
//
//samzasql:hotpath
func (t *RepartitionTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	n := t.Partitions
	groups := max(n, 1) // unknown partition count: one unsplit batch
	for int32(len(t.perPart)) < groups {
		t.perPart = append(t.perPart, nil)
	}
	for p := range t.perPart {
		t.perPart[p] = t.perPart[p][:0]
	}
	if t.keyDec == nil {
		if err := t.compileKeyRead(); err != nil {
			return fmt.Errorf("executor: repartition key read: %w", err)
		}
	}
	t.keyDec.Reset(t.keyCols, len(envs))
	t.keyArena = t.keyArena[:0]
	for i := range envs {
		env := &envs[i]
		start := len(t.keyArena)
		if err := t.appendKey(env.Value, i); err != nil {
			return fmt.Errorf("executor: repartition key read: %w", err)
		}
		key := t.keyArena[start:len(t.keyArena):len(t.keyArena)]
		dest, part := int32(0), int32(-1)
		if n > 0 {
			dest = kafka.PartitionForKey(key, n)
			part = dest
		}
		t.perPart[dest] = append(t.perPart[dest], kafka.Message{
			Partition: part, Key: key, Value: env.Value, Timestamp: env.Timestamp,
		})
	}
	for p := int32(0); p < groups; p++ {
		if len(t.perPart[p]) == 0 {
			continue
		}
		if err := c.SendBatch(t.Spec.TargetTopic, t.perPart[p]); err != nil {
			return err
		}
	}
	return nil
}

// repartitionJobs tracks re-keying stages already running, so concurrent
// queries joining on the same key share one intermediate stream instead of
// duplicating it (§2's sharing-through-intermediate-streams property).
type repartitionJobs struct {
	mu      sync.Mutex
	started map[string]*samza.RunningJob
}

// ensure starts the stage for spec if no equivalent stage runs yet,
// returning the job (nil if an existing stage already feeds the topic).
func (r *repartitionJobs) ensure(ctx context.Context, e *Engine, spec *physical.RepartitionSpec) (*samza.RunningJob, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started == nil {
		r.started = map[string]*samza.RunningJob{}
	}
	if _, ok := r.started[spec.TargetTopic]; ok {
		return nil, nil
	}
	srcParts, err := e.Broker.Partitions(spec.SourceTopic)
	if err != nil {
		return nil, err
	}
	if err := e.Broker.EnsureTopic(spec.TargetTopic, kafka.TopicConfig{Partitions: srcParts}); err != nil {
		return nil, err
	}
	job := e.jobSpec("repartition-"+spec.TargetTopic, []samza.StreamSpec{{Topic: spec.SourceTopic}}, func() samza.StreamTask {
		return &RepartitionTask{Spec: spec, Partitions: srcParts}
	})
	rj, err := e.Runner.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	r.started[spec.TargetTopic] = rj
	return rj, nil
}

// Job is a running SamzaSQL query: the main Samza job plus any upstream
// repartition stages it depends on.
type Job struct {
	// Main is the query's own Samza job.
	Main *samza.RunningJob
	// Repartitions are the re-keying stages this submission started (shared
	// stages started by earlier queries are not listed and not stopped).
	Repartitions []*samza.RunningJob
}

// Stop stops the main job, then this submission's repartition stages.
func (j *Job) Stop() []yarn.ContainerStatus {
	statuses := j.Main.Stop()
	for _, r := range j.Repartitions {
		statuses = append(statuses, r.Stop()...)
	}
	return statuses
}

// MetricsSnapshot reports the main job's merged metrics.
func (j *Job) MetricsSnapshot() metrics.Snapshot { return j.Main.MetricsSnapshot() }
