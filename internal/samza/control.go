package samza

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
)

// Control streams carry the framework's own telemetry — metrics snapshots,
// trace batches and the monitor's alerts — as ordinary
// one-partition streams (§2: Samza publishes its metrics as a stream), so
// monitoring data is replayable from retention and readable by any job. All
// of them share the mechanism in this file: one codec (EncodeRecord and
// DecodeRecord), one publisher that stamps the shared Header, and one
// Tailer that reads a stream back.

// Header is the envelope every control record except an alert starts with:
// who published it, when, and where it falls in the publisher's series.
// Embedded in a message type, its fields flatten into the record's JSON
// ahead of the payload.
type Header struct {
	// Job is the publishing job's name; empty for the runner's own
	// lifecycle batches.
	Job string `json:"job"`
	// Container is the publishing container's ID within the job, or -1 for
	// runner batches.
	Container int `json:"container"`
	// TimeMillis is the publish wall-clock time.
	TimeMillis int64 `json:"time-millis"`
	// Seq numbers the publisher's records from 1; a restarted container
	// starts a new series.
	Seq int64 `json:"seq"`
	// Final marks the flush published when the publisher stops. Consumers
	// (the monitor, tests on short-lived jobs) use it to close a series
	// instead of waiting for an interval that will never tick again.
	Final bool `json:"final,omitempty"`
}

// Record is a control message that carries a Header: any type embedding
// Header is one.
type Record interface{ header() *Header }

func (h *Header) header() *Header { return h }

// EncodeRecord is the control streams' codec: a record is its JSON.
func EncodeRecord(rec any) ([]byte, error) { return json.Marshal(rec) }

// DecodeRecord is EncodeRecord's inverse for records of type M.
func DecodeRecord[M any](data []byte) (*M, error) {
	m := new(M)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ProduceRecord encodes rec and appends it to partition 0 of topic under
// key, timestamped timeMillis.
func ProduceRecord(b *kafka.Broker, topic string, key []byte, timeMillis int64, rec any) error {
	data, err := EncodeRecord(rec)
	if err != nil {
		return fmt.Errorf("samza: %s encode: %w", topic, err)
	}
	_, err = b.Produce(topic, kafka.Message{Partition: 0, Key: key, Value: data, Timestamp: timeMillis})
	if err != nil {
		return fmt.Errorf("samza: %s publish: %w", topic, err)
	}
	return nil
}

// Publisher is one publisher's end of a control stream: it stamps each
// record's Header and produces the record under the key "job-container".
// Safe for concurrent use. The topic must already exist.
type Publisher struct {
	broker    *kafka.Broker
	topic     string
	job       string
	container int
	key       []byte
	seq       atomic.Int64
}

// NewPublisher builds the publisher for one job container (or, with job ""
// and container -1, for the runner itself) on topic.
func NewPublisher(b *kafka.Broker, topic, job string, container int) *Publisher {
	return &Publisher{
		broker: b, topic: topic, job: job, container: container,
		key: []byte(fmt.Sprintf("%s-%d", job, container)),
	}
}

// Publish fills rec's Header — job, container, the current time, the next
// Seq and final — and produces it.
func (p *Publisher) Publish(rec Record, final bool) error {
	h := rec.header()
	*h = Header{
		Job:        p.job,
		Container:  p.container,
		TimeMillis: time.Now().UnixMilli(),
		Seq:        p.seq.Add(1),
		Final:      final,
	}
	return ProduceRecord(p.broker, p.topic, p.key, h.TimeMillis, rec)
}

// Run publishes what collect returns once at start, once per interval, and
// once more with final set after ctx ends, so a job that stops between
// ticks still leaves its closing record. A nil record publishes nothing.
// collect gets ctx so a collection that blocks ends with it. Publish
// errors are dropped and the next tick tries again: observability must
// never take down the pipeline it observes.
func (p *Publisher) Run(ctx context.Context, interval time.Duration, collect func(ctx context.Context, final bool) Record) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if rec := collect(ctx, false); rec != nil {
			_ = p.Publish(rec, false)
		}
		select {
		case <-ctx.Done():
			if rec := collect(ctx, true); rec != nil {
				_ = p.Publish(rec, true)
			}
			return
		case <-t.C:
		}
	}
}

// Tailer reads a control stream back into records of type M, from the
// start of its retention: the consumer half of a publisher, used by the
// monitor and by tests asserting on published telemetry.
type Tailer[M any] struct {
	consumer *kafka.Consumer
	topic    string
}

// NewTailer attaches a tailer to topic, creating the one-partition topic if
// no publisher has yet, so a tailer may start before the jobs it watches.
func NewTailer[M any](b *kafka.Broker, topic string) (*Tailer[M], error) {
	if err := b.EnsureTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
		return nil, fmt.Errorf("samza: %s tailer: %w", topic, err)
	}
	c := kafka.NewConsumer(b, topic+"-tailer")
	if err := c.Assign(kafka.TopicPartition{Topic: topic, Partition: 0}); err != nil {
		c.Close()
		return nil, fmt.Errorf("samza: %s tailer assign: %w", topic, err)
	}
	return &Tailer[M]{consumer: c, topic: topic}, nil
}

// DecodeError reports the records one Tailer.Poll skipped because they did
// not decode. The poll's other records are returned with it.
type DecodeError struct {
	Topic string
	// Skipped counts the undecodable records.
	Skipped int
	// Err is the first skipped record's decode error.
	Err error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("samza: %s: skipped %d undecodable record(s): %v", e.Topic, e.Skipped, e.Err)
}

// Poll returns up to max records published since the last call, blocking
// per the consumer's semantics until messages arrive or ctx ends. A record
// that does not decode is skipped, not the end of the poll: the consumer is
// already past the whole batch, so stopping at a bad record would lose the
// good ones after it. Skipped records come back as a *DecodeError alongside
// the decoded ones.
func (t *Tailer[M]) Poll(ctx context.Context, max int) ([]*M, error) {
	msgs, err := t.consumer.Poll(ctx, max)
	if err != nil {
		return nil, err
	}
	out := make([]*M, 0, len(msgs))
	var bad *DecodeError
	for i := range msgs {
		m, err := DecodeRecord[M](msgs[i].Value)
		if err != nil {
			if bad == nil {
				bad = &DecodeError{Topic: t.topic, Err: err}
			}
			bad.Skipped++
			continue
		}
		out = append(out, m)
	}
	if bad != nil {
		return out, bad
	}
	return out, nil
}

// BindLag registers the tailer's own consumer lag as a gauge
// ("tailer.lag.<topic>.0") in reg, so the observability pipeline is itself
// observable. Call UpdateLag to refresh it.
func (t *Tailer[M]) BindLag(reg *metrics.Registry) {
	tp := kafka.TopicPartition{Topic: t.topic, Partition: 0}
	t.consumer.BindLagGauge(tp, reg.Gauge(fmt.Sprintf("tailer.lag.%s.0", t.topic)))
}

// UpdateLag refreshes the bound lag gauge from the broker's high watermark
// and returns the tailer's outstanding records.
func (t *Tailer[M]) UpdateLag() (int64, error) { return t.consumer.UpdateLag() }

// Close releases the tailer's consumer.
func (t *Tailer[M]) Close() { t.consumer.Close() }
