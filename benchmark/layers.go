package main

import (
	"context"
	"slices"
	"strconv"
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/executor"
	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	smetrics "samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/trace"
	wl "samzasql/internal/workload"
)

const (
	// layerRows bounds the rows each single-layer measurement replays;
	// passthroughRows those of the do-nothing job, which needs more to run
	// for a measurable time.
	layerRows       = 200_000
	passthroughRows = 2_000_000
	// blockRows is the batch size of the single-layer measurements: the
	// container's default poll size (samza.DefaultBatchSize).
	blockRows = samza.DefaultBatchSize
	// prepareReps is how many Engine.Prepare calls sql.prepare_ms is the
	// median of.
	prepareReps = 20
)

// perRow times fn over n rows on this goroutine and returns ns per row.
func perRow(rec *recorder, name string, n int, fn func() error) (float64, error) {
	id := rec.begin(name, -1)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	rec.end(id, n)
	return float64(elapsed.Nanoseconds()) / float64(n), err
}

// measureLayers times each layer on its own, from outside, with the
// workload's own messages: one goroutine, no job running.
func measureLayers(d *dataset, rec *recorder, rep *report) error {
	n := min(d.n, layerRows)
	msgs := d.fill(nil, 0, n)
	c, err := newCluster()
	if err != nil {
		return err
	}

	// sql: parse, validate, plan, optimize, compile.
	var prepared *executor.Prepared
	times := make([]float64, prepareReps)
	for i := range times {
		id := rec.begin("sql.prepare", -1)
		start := time.Now()
		prepared, err = c.engine.Prepare(d.w.sql)
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		rec.end(id, 0)
		if err != nil {
			return err
		}
	}
	rep.set("sql.prepare_ms", median(times), "ms", prepareReps)

	// avro: decode the input rows, encode the reference output rows.
	schema := wl.OrdersSchema()
	if d.w.clicks {
		schema = clicksSchema()
	}
	inCodec := avro.MustCodec(schema)
	var row []any
	ns, err := perRow(rec, "avro.decode", n, func() error {
		for i := range msgs {
			if row, err = inCodec.DecodeRow(msgs[i].Value, row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("avro.decode_ns_per_row", ns, "ns", n)

	var outRows [][]any
	want := make([]int64, d.w.cols)
	for seq := 0; seq < n; seq++ {
		if d.w.expect(d, seq, want) {
			out := make([]any, len(want))
			for i, v := range want {
				out[i] = v
			}
			outRows = append(outRows, out)
		}
	}
	var buf []byte
	ns, err = perRow(rec, "avro.encode", len(outRows), func() error {
		for _, out := range outRows {
			if buf, err = prepared.Program.OutputCodec.AppendEncodeRow(buf[:0], out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("avro.encode_ns_per_row", ns, "ns", len(outRows))

	// kafka: append to and read back from a scratch topic.
	if err := c.broker.EnsureTopic("scratch", kafka.TopicConfig{Partitions: partitions}); err != nil {
		return err
	}
	ns, err = perRow(rec, "kafka.produce_batch", n, func() error {
		for i := 0; i < n; i += blockRows {
			if err := c.broker.ProduceBatch("scratch", msgs[i:min(i+blockRows, n)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("kafka.produce_ns_per_row", ns, "ns", n)

	cons := kafka.NewConsumer(c.broker, "")
	defer cons.Close()
	for p := int32(0); p < partitions; p++ {
		if err := cons.Assign(kafka.TopicPartition{Topic: "scratch", Partition: p}); err != nil {
			return err
		}
	}
	ns, err = perRow(rec, "kafka.poll", n, func() error {
		for read := 0; read < n; {
			got, err := cons.Poll(context.Background(), blockRows)
			if err != nil {
				return err
			}
			read += len(got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("kafka.fetch_ns_per_row", ns, "ns", n)

	// kv: replay the stream's productId sequence as store keys: reads
	// against a plain store holding every key, writes through a changelog
	// store that mirrors each one, as the job's write-through default does.
	keys := d.keys[:d.w.keys]
	value := make([]byte, 16)
	plain := kv.NewStore()
	for _, k := range keys {
		plain.Put(k, value)
	}
	ns, _ = perRow(rec, "kv.get", n, func() error {
		for _, pid := range d.product[:n] {
			plain.Get(keys[pid])
		}
		return nil
	})
	rep.set("kv.get_ns", ns, "ns", n)
	mirrored, err := kv.NewChangelogStore(kv.NewStore(), c.broker, "scratch"+changelogSuffix, 1, 0)
	if err != nil {
		return err
	}
	mirrored.SetWriteBatchSize(1)
	ns, _ = perRow(rec, "kv.put", n, func() error {
		for _, pid := range d.product[:n] {
			mirrored.Put(keys[pid], value)
		}
		return nil
	})
	rep.set("kv.put_ns", ns, "ns", n)

	// executor: the SQL task alone, fed blocks, its output discarded. Only
	// plans without state can run outside a container (README, follow-ups).
	if len(prepared.Program.Stores) == 0 && len(prepared.Program.Repartitions) == 0 {
		ns, err := taskNsPerRow(c, prepared, d, msgs, rec)
		if err != nil {
			return err
		}
		rep.set("executor.task_ns_per_row", ns, "ns", n)
	}

	// samza: the container loop around a task that does nothing.
	through := min(d.n, passthroughRows)
	rate, err := passthroughRate(d, through, rec)
	if err != nil {
		return err
	}
	rep.set("samza.passthrough_rows_per_s", rate, "rows/s", through)
	return nil
}

func median(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// discard is a collector and coordinator that drops everything.
type discard struct{}

func (discard) Send(samza.OutgoingMessageEnvelope) error { return nil }
func (discard) SendBatch(string, []kafka.Message) error  { return nil }
func (discard) Commit()                                  {}
func (discard) Shutdown()                                {}

func taskNsPerRow(c *cluster, p *executor.Prepared, d *dataset, msgs []kafka.Message, rec *recorder) (float64, error) {
	const path = "/benchmark/task/query"
	if err := c.engine.ZK.CreateRecursive(path, []byte(p.Stmt.String())); err != nil {
		return 0, err
	}
	task := executor.NewTask(c.engine.Catalog, c.engine.ZK, c.engine.Optimize)
	err := task.Init(&samza.TaskContext{
		Metrics: smetrics.NewRegistry(),
		Config: map[string]string{
			"samzasql.zk.query.path": path,
			"samzasql.output.topic":  p.OutputTopic,
			"samzasql.fastpath":      strconv.FormatBool(c.engine.FastPath),
		},
		Collector: discard{},
		Trace:     trace.NewActive(trace.NewRecorder(16)),
	})
	if err != nil {
		return 0, err
	}
	envs := make([]samza.IncomingMessageEnvelope, len(msgs))
	for i := range msgs {
		envs[i] = samza.IncomingMessageEnvelope{
			Stream: d.w.topic(), Offset: int64(i),
			Key: msgs[i].Key, Value: msgs[i].Value, Timestamp: msgs[i].Timestamp,
		}
	}
	return perRow(rec, "executor.task", len(envs), func() error {
		for i := 0; i < len(envs); i += blockRows {
			if err := task.ProcessBatch(envs[i:min(i+blockRows, len(envs))], discard{}, discard{}, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// passthroughTask forwards every message unchanged to the same partition of
// another topic, whole batches at a time.
type passthroughTask struct{ out []kafka.Message }

const passthroughTopic = "passthrough-out"

func (t *passthroughTask) Init(*samza.TaskContext) error { return nil }

func (t *passthroughTask) Process(env samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator) error {
	return c.Send(samza.OutgoingMessageEnvelope{
		Stream: passthroughTopic, Partition: env.Partition,
		Key: env.Key, Value: env.Value, Timestamp: env.Timestamp,
	})
}

// The repository's own analyzers (internal/analysis, which walks this
// directory too) hold every batched task the container can call to the
// hot-path rules, hence the annotations.
//
//samzasql:hotpath
func (t *passthroughTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	t.out = t.out[:0]
	for i := range envs {
		e := &envs[i]
		t.out = append(t.out, kafka.Message{Partition: e.Partition, Key: e.Key, Value: e.Value, Timestamp: e.Timestamp})
	}
	//samzasql:ignore hotpath-blocking -- producing to the broker is this task's whole job; the partition append lock is held for a single in-memory append
	return c.(samza.BatchCollector).SendBatch(passthroughTopic, t.out)
}

// passthroughRate drains n rows through a job that does no work per row,
// with the benchmark's partitions and containers and the engine's commit
// interval: the ceiling the container loop sets for any query.
func passthroughRate(d *dataset, n int, rec *recorder) (float64, error) {
	c, err := newCluster()
	if err != nil {
		return 0, err
	}
	if err := c.load(d, n, nil, -1); err != nil {
		return 0, err
	}
	if err := c.broker.EnsureTopic(passthroughTopic, kafka.TopicConfig{Partitions: partitions}); err != nil {
		return 0, err
	}
	id := rec.begin("samza.passthrough", -1)
	job, err := c.engine.Runner.Submit(context.Background(), &samza.JobSpec{
		Name:        "passthrough",
		Inputs:      []samza.StreamSpec{{Topic: d.w.topic()}},
		Containers:  containers,
		CommitEvery: 1000,
		TaskFactory: func() samza.StreamTask { return &passthroughTask{} },
	})
	if err != nil {
		return 0, err
	}
	defer job.Stop()
	first, last, err := awaitRows(c.broker, passthroughTopic, int64(n), outputPatience)
	if err != nil {
		return 0, err
	}
	rec.end(id, n)
	return float64(n) / last.Sub(first).Seconds(), nil
}
