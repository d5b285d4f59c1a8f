package main

import (
	"context"
	"fmt"
	"time"

	"samzasql/internal/executor"
	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"
)

// cluster is one fresh in-process deployment: broker, resource manager, job
// runner, coordination store and SQL engine. Every Engine field other than
// the container count keeps its shipped default, so a later change of a
// default shows in the numbers.
type cluster struct {
	broker *kafka.Broker
	engine *executor.Engine
}

func newCluster() (*cluster, error) {
	broker := kafka.NewBroker()
	yc := yarn.NewCluster()
	for i := 0; i < 2; i++ {
		yc.AddNode(fmt.Sprintf("node-%d", i), yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	}
	cat, err := newCatalog()
	if err != nil {
		return nil, err
	}
	engine := executor.NewEngine(cat, broker, samza.NewJobRunner(broker, yc), zk.NewStore())
	engine.Containers = containers
	return &cluster{broker: broker, engine: engine}, nil
}

// load creates the workload's topics, writes the relation and the first n
// input rows.
func (c *cluster) load(d *dataset, n int, rec *recorder, parent int) error {
	if len(d.relation) > 0 {
		if err := c.broker.EnsureTopic("products", kafka.TopicConfig{Partitions: partitions, Compacted: true}); err != nil {
			return err
		}
		if err := c.produce("products", d.relation, rec, parent); err != nil {
			return err
		}
	}
	if err := c.broker.EnsureTopic(d.w.topic(), kafka.TopicConfig{Partitions: partitions}); err != nil {
		return err
	}
	var buf []kafka.Message
	for from := 0; from < n; from += loadChunk {
		buf = d.fill(buf[:0], from, min(from+loadChunk, n))
		if err := c.produce(d.w.topic(), buf, rec, parent); err != nil {
			return err
		}
	}
	return nil
}

// loadChunk bounds one ProduceBatch call when loading a backlog.
const loadChunk = 4096

// produce is one ProduceBatch call, recorded as a span.
func (c *cluster) produce(topic string, msgs []kafka.Message, rec *recorder, parent int) error {
	id := rec.begin("kafka.produce_batch", parent)
	err := c.broker.ProduceBatch(topic, msgs)
	rec.end(id, len(msgs))
	return err
}

// running is a submitted query and where its results appear.
type running struct {
	c        *cluster
	prepared *executor.Prepared
	job      *executor.Job
	outParts int32
	// submitted is the moment Engine.Submit was called.
	submitted time.Time
}

// submit plans the workload's query and launches its job.
func (c *cluster) submit(w *workload, rec *recorder, parent int) (*running, error) {
	id := rec.begin("sql.prepare", parent)
	p, err := c.engine.Prepare(w.sql)
	rec.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	submitted := time.Now()
	id = rec.begin("executor.submit", parent)
	job, err := c.engine.Submit(context.Background(), p)
	rec.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", w.name, err)
	}
	parts, err := c.broker.Partitions(p.OutputTopic)
	if err != nil {
		job.Stop()
		return nil, err
	}
	return &running{c: c, prepared: p, job: job, outParts: parts, submitted: submitted}, nil
}

// stop ends the job and reports a container that died of an error.
func (r *running) stop() error {
	for _, st := range r.job.Stop() {
		if st.Err != nil && !st.Killed {
			return fmt.Errorf("container %s: %w", st.ID, st.Err)
		}
	}
	return nil
}

// topicRows is the number of rows ever appended to a topic.
func topicRows(b *kafka.Broker, topic string) (int64, error) {
	parts, err := b.Partitions(topic)
	if err != nil {
		return 0, err
	}
	var total int64
	for p := int32(0); p < parts; p++ {
		hwm, err := b.HighWatermark(kafka.TopicPartition{Topic: topic, Partition: p})
		if err != nil {
			return 0, err
		}
		total += hwm
	}
	return total, nil
}

// awaitRows polls a topic's size until it holds want rows, or fails when
// patience runs out with no new row. It returns when the first row and the
// want-th row were seen. Polling high watermarks costs the job nothing,
// where a decoding consumer would compete with it for the two cores.
func awaitRows(b *kafka.Broker, topic string, want int64, patience time.Duration) (first, last time.Time, err error) {
	var seen int64
	progress := time.Now()
	for {
		rows, err := topicRows(b, topic)
		if err != nil {
			return first, last, err
		}
		now := time.Now()
		if rows > 0 && first.IsZero() {
			first = now
		}
		if rows >= want {
			return first, now, nil
		}
		if rows > seen {
			seen, progress = rows, now
		} else if now.Sub(progress) > patience {
			return first, now, fmt.Errorf("%s stalled at %d of %d rows", topic, rows, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// outputPatience is how long a job may emit nothing before a wait for its
// output gives up.
const outputPatience = 30 * time.Second

func (r *running) awaitOutput(want int64) (first, last time.Time, err error) {
	return awaitRows(r.c.broker, r.prepared.OutputTopic, want, outputPatience)
}

// lag is the number of input rows the query's jobs have not yet polled.
func (r *running) lag() int64 {
	lag := r.job.Main.UpdateLags()
	for _, stage := range r.job.Repartitions {
		lag += stage.UpdateLags()
	}
	return lag
}

// outputConsumer reads every partition of the output topic from its start.
func (r *running) outputConsumer() (*kafka.Consumer, error) {
	cons := kafka.NewConsumer(r.c.broker, "")
	for p := int32(0); p < r.outParts; p++ {
		if err := cons.Assign(kafka.TopicPartition{Topic: r.prepared.OutputTopic, Partition: p}); err != nil {
			cons.Close()
			return nil, err
		}
	}
	return cons, nil
}
