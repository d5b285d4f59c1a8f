package executor

import (
	"context"
	"fmt"
	"sync"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/physical"
	"samzasql/internal/yarn"
)

// RepartitionTask is the Samza task of a re-keying stage (§7 future work
// 1): one walk over each message's wire bytes (never materializing the
// tuple) reads the join-key column and copies the columns the consumer
// reads into the outgoing record (or forwards the message unchanged when
// the consumer reads all of them), sent to the intermediate topic keyed so
// the broker's partitioner co-locates join keys. Ordering is preserved per
// source partition only — the caveat the paper flags for order-sensitive
// downstream queries.
type RepartitionTask struct {
	Spec *physical.RepartitionSpec
	// Partitions is the target topic's partition count, letting the
	// vectorized path group a batch by destination partition. Zero (unknown)
	// keeps batches unsplit with broker-side key hashing.
	Partitions int32

	// perPart is the per-destination message grouping reused across batches.
	perPart [][]kafka.Message
	// walk is the per-message walk, compiled on first use. The batch's keys
	// and projected values are written into arenas reused across batches —
	// the broker copies what it is sent.
	walk       *avro.FieldWalk
	keyArena   []byte
	valueArena []byte
}

// Init implements samza.StreamTask.
func (t *RepartitionTask) Init(*samza.TaskContext) error { return nil }

// ProcessBatch implements samza.StreamTask: the whole polled block is
// re-keyed in one pass and routed by destination partition — the messages
// bound for each target partition flush through one SendBatch call (the
// same FNV key hash the broker applies, so content and per-partition order
// are identical to per-message sends). An unknown partition count falls
// back to broker-side partitioning.
//
//samzasql:hotpath
func (t *RepartitionTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	if err := t.route(envs); err != nil {
		return err
	}
	for _, batch := range t.perPart {
		if len(batch) == 0 {
			continue
		}
		if err := c.SendBatch(t.Spec.TargetTopic, batch); err != nil {
			return err
		}
	}
	return nil
}

// route re-keys envs into perPart, one group per destination partition in
// input order (a single group when the partition count is unknown).
//
//samzasql:hotpath
func (t *RepartitionTask) route(envs []samza.IncomingMessageEnvelope) error {
	n := t.Partitions
	groups := max(n, 1) // unknown partition count: one unsplit batch
	for int32(len(t.perPart)) < groups {
		t.perPart = append(t.perPart, nil)
	}
	for p := range t.perPart {
		t.perPart[p] = t.perPart[p][:0]
	}
	if t.walk == nil {
		w, err := t.Spec.Codec.NewFieldWalk(t.Spec.Keep, t.Spec.KeyCol)
		if err != nil {
			return fmt.Errorf("executor: repartition walk: %w", err)
		}
		t.walk = w
	}
	project := t.Spec.Keep != nil
	t.keyArena, t.valueArena = t.keyArena[:0], t.valueArena[:0]
	for i := range envs {
		env := &envs[i]
		kStart, vStart := len(t.keyArena), len(t.valueArena)
		var err error
		if t.valueArena, t.keyArena, err = t.walk.Walk(t.valueArena, t.keyArena, env.Value); err != nil {
			return fmt.Errorf("executor: repartition key read: %w", err)
		}
		key := t.keyArena[kStart:len(t.keyArena):len(t.keyArena)]
		value := env.Value
		if project {
			value = t.valueArena[vStart:len(t.valueArena):len(t.valueArena)]
		}
		dest, part := int32(0), int32(-1)
		if n > 0 {
			dest = kafka.PartitionForKey(key, n)
			part = dest
		}
		t.perPart[dest] = append(t.perPart[dest], kafka.Message{
			Partition: part, Key: key, Value: value, Timestamp: env.Timestamp,
		})
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
