package samza

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/profile"
	"samzasql/internal/serde"
)

// DefaultProfilesTopic is the stream profile batches publish to when the
// job does not override it, mirroring the "__metrics"/"__traces" convention.
const DefaultProfilesTopic = "__profiles"

// ProfileBatchMessage is one published capture window: per-function CPU
// flat/cum nanoseconds over the window, heap-allocation deltas, and
// goroutine counts. Like metrics snapshots and trace batches it travels
// over an ordinary stream, so profiles are replayable from retention and
// consumable with the same tools as any other stream.
type ProfileBatchMessage struct {
	// Job is the publishing job's name.
	Job string `json:"job"`
	// Container is the publishing container's ID within the job. Each
	// capture observes the whole process (CPU profiling is process-global),
	// so in this in-process simulation per-container batches are views of
	// the shared process taken on that container's schedule.
	Container int `json:"container"`
	// TimeMillis is the publish wall-clock time.
	TimeMillis int64 `json:"time-millis"`
	// Seq numbers this container's batches from 1.
	Seq int64 `json:"seq"`
	// Final marks the flush published when the container stops (heap and
	// goroutine snapshots only — no CPU window delays shutdown).
	Final bool `json:"final,omitempty"`
	// WindowMillis is the CPU sampling length this batch covers.
	WindowMillis int64 `json:"window-millis"`
	// CPU is the top-N per-function CPU time over the window.
	CPU []profile.FuncStat `json:"cpu,omitempty"`
	// CPUTotal and CPUSamples are the window's whole sampled CPU (every
	// function, not only the top N), in nanoseconds and in samples.
	CPUTotal   int64 `json:"cpu-total,omitempty"`
	CPUSamples int64 `json:"cpu-samples,omitempty"`
	// HeapDelta is the top-N per-function bytes allocated since the
	// previous batch.
	HeapDelta []profile.FuncStat `json:"heap-delta,omitempty"`
	// Goroutines is the top-N per-function live goroutine counts (a level,
	// not a delta).
	Goroutines []profile.FuncStat `json:"goroutines,omitempty"`
}

// profileSerde routes profile batches through the serde stack, registered
// as "profile-batch" so jobs and tools resolve it by name.
type profileSerde struct{}

// Name implements serde.Serde.
func (profileSerde) Name() string { return "profile-batch" }

// Encode implements serde.Serde.
func (profileSerde) Encode(v any) ([]byte, error) {
	m, ok := v.(*ProfileBatchMessage)
	if !ok {
		return nil, fmt.Errorf("%w: want *samza.ProfileBatchMessage, got %T", serde.ErrWrongType, v)
	}
	return json.Marshal(m)
}

// Decode implements serde.Serde.
func (profileSerde) Decode(data []byte) (any, error) {
	var m ProfileBatchMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func init() { serde.Register(profileSerde{}) }

// ProfileReporter runs one container's continuous profiler: every interval
// it captures a CPU window plus heap-delta/goroutine snapshots and
// publishes the folded batch. On shutdown it publishes a final CPU-less
// batch (Final=true) so consumers can close the container's series without
// waiting out a capture window.
type ProfileReporter struct {
	broker    *kafka.Broker
	job       string
	container int
	topic     string
	prof      *profile.Profiler
	s         serde.Serde
	seq       int64
}

// NewProfileReporter builds a reporter around an enabled profiler. The
// profiles topic must already exist (Container.Run ensures it).
func NewProfileReporter(b *kafka.Broker, job string, container int, topic string, prof *profile.Profiler) *ProfileReporter {
	s, err := serde.Lookup("profile-batch")
	if err != nil {
		// Registered by this package's init; absence is a programming error.
		panic(err)
	}
	return &ProfileReporter{
		broker: b, job: job, container: container,
		topic: topic, prof: prof, s: s,
	}
}

// Publish captures one window and serializes the batch onto the profiles
// stream.
func (r *ProfileReporter) Publish(ctx context.Context) error {
	batch, err := r.prof.Capture(ctx)
	if err != nil {
		return err
	}
	return r.publish(batch, false)
}

func (r *ProfileReporter) publish(batch *profile.Batch, final bool) error {
	r.seq++
	msg := &ProfileBatchMessage{
		Job:          r.job,
		Container:    r.container,
		TimeMillis:   batch.TimeMillis,
		Seq:          r.seq,
		Final:        final,
		WindowMillis: batch.WindowMillis,
		CPU:          batch.CPU,
		CPUTotal:     batch.CPUTotal,
		CPUSamples:   batch.CPUSamples,
		HeapDelta:    batch.HeapDelta,
		Goroutines:   batch.Goroutines,
	}
	data, err := r.s.Encode(msg)
	if err != nil {
		return fmt.Errorf("samza: profile batch encode: %w", err)
	}
	_, err = r.broker.Produce(r.topic, kafka.Message{
		Partition: 0,
		Key:       []byte(fmt.Sprintf("%s-%d", r.job, r.container)),
		Value:     data,
		Timestamp: msg.TimeMillis,
	})
	if err != nil {
		return fmt.Errorf("samza: profile batch publish: %w", err)
	}
	return nil
}

// Run captures and publishes until ctx is cancelled, then flushes a final
// CPU-less batch. Capture and publish errors are not fatal to the job —
// profiling must never take down the pipeline it observes — so Run drops
// them and tries again next interval. The interval ticker starts after
// each capture returns, so a window can never overlap the next tick's.
func (r *ProfileReporter) Run(ctx context.Context) {
	interval := r.prof.Config().Interval
	for {
		// Sleep the gap between windows (interval minus the window the
		// capture itself blocks for), so the capture cadence matches the
		// configured interval rather than interval+window.
		gap := interval - r.prof.Config().Window
		if gap < 0 {
			gap = 0
		}
		t := time.NewTimer(gap)
		select {
		case <-ctx.Done():
			t.Stop()
			r.finalFlush()
			return
		case <-t.C:
		}
		_ = r.Publish(ctx)
		if ctx.Err() != nil {
			r.finalFlush()
			return
		}
	}
}

// finalFlush publishes the closing heap/goroutine snapshot with Final set.
func (r *ProfileReporter) finalFlush() {
	heap, err := r.prof.CaptureHeapDelta()
	if err != nil {
		return
	}
	gor, _ := r.prof.CaptureGoroutines()
	_ = r.publish(&profile.Batch{
		TimeMillis: time.Now().UnixMilli(),
		HeapDelta:  heap,
		Goroutines: gor,
	}, true)
}

// ProfilesTailer consumes a profiles stream back into decoded batches —
// the consumer half of the reporter, used by the monitor's hot-function
// store and by tests asserting on published profiles.
type ProfilesTailer struct {
	consumer *kafka.Consumer
	topic    string
	s        serde.Serde
}

// NewProfilesTailer attaches a consumer at the start of the profiles topic.
func NewProfilesTailer(b *kafka.Broker, topic string) (*ProfilesTailer, error) {
	s, err := serde.Lookup("profile-batch")
	if err != nil {
		return nil, err
	}
	c := kafka.NewConsumer(b, "profiles-tailer")
	if err := c.Assign(kafka.TopicPartition{Topic: topic, Partition: 0}); err != nil {
		return nil, fmt.Errorf("samza: profiles tailer assign: %w", err)
	}
	return &ProfilesTailer{consumer: c, topic: topic, s: s}, nil
}

// BindLag registers the tailer's own consumer lag on the profiles stream as
// a gauge ("tailer.lag.<topic>.0") in reg, so the observability pipeline is
// itself observable. Call UpdateLag to refresh it.
func (t *ProfilesTailer) BindLag(reg *metrics.Registry) {
	tp := kafka.TopicPartition{Topic: t.topic, Partition: 0}
	t.consumer.BindLagGauge(tp, reg.Gauge(fmt.Sprintf("tailer.lag.%s.0", t.topic)))
}

// UpdateLag refreshes the bound lag gauge from the broker's high watermark
// and returns the tailer's outstanding batches.
func (t *ProfilesTailer) UpdateLag() (int64, error) {
	return t.consumer.UpdateLag()
}

// Poll returns up to max batches published since the last call, blocking
// per the consumer's semantics until messages arrive or ctx ends.
func (t *ProfilesTailer) Poll(ctx context.Context, max int) ([]*ProfileBatchMessage, error) {
	msgs, err := t.consumer.Poll(ctx, max)
	if err != nil {
		return nil, err
	}
	out := make([]*ProfileBatchMessage, 0, len(msgs))
	for i := range msgs {
		v, err := t.s.Decode(msgs[i].Value)
		if err != nil {
			return out, fmt.Errorf("samza: profile batch decode: %w", err)
		}
		out = append(out, v.(*ProfileBatchMessage))
	}
	return out, nil
}

// Close releases the tailer's consumer.
func (t *ProfilesTailer) Close() { t.consumer.Close() }
