package samza

import (
	"context"
	"fmt"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// latencyTask models an operator whose per-message cost is dominated by
// waiting on something external (a remote store lookup, an RPC, downstream
// backpressure) rather than CPU. Task-level parallelism overlaps those waits
// across a container's tasks, so the speedup shows even on a single core;
// CPU-bound operators additionally need GOMAXPROCS > 1 to scale.
type latencyTask struct{ d time.Duration }

func (t *latencyTask) Init(*TaskContext) error { return nil }

func (t *latencyTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	for range envs {
		time.Sleep(t.d)
	}
	return nil
}

// BenchmarkContainerParallelism compares one container running 4 tasks under
// the sequential loop (TaskParallelism=1, the paper prototype's behavior)
// against bounded (2) and full (4) task parallelism. Throughput is reported
// as msg/s; the par=4 case should beat par=1 by well over 2x.
func BenchmarkContainerParallelism(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("tasks=4/par=%d", par), func(b *testing.B) {
			benchContainerParallelism(b, par)
		})
	}
}

func benchContainerParallelism(b *testing.B, par int) {
	const (
		parts   = int32(4)
		perPart = 64
		latency = 100 * time.Microsecond
	)
	total := int64(parts) * perPart
	key, val := []byte("k"), make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		broker := kafka.NewBroker()
		if err := broker.CreateTopic("in", kafka.TopicConfig{Partitions: parts}); err != nil {
			b.Fatal(err)
		}
		for p := int32(0); p < parts; p++ {
			for m := 0; m < perPart; m++ {
				if _, err := broker.Produce("in", kafka.Message{Partition: p, Key: key, Value: val}); err != nil {
					b.Fatal(err)
				}
			}
		}
		job := &JobSpec{
			Name:            "bench-par",
			Inputs:          []StreamSpec{{Topic: "in"}},
			TaskParallelism: par,
			TaskFactory:     func() StreamTask { return &latencyTask{d: latency} },
		}
		cpm, err := NewCheckpointManager(broker, job)
		if err != nil {
			b.Fatal(err)
		}
		cont, err := newContainer(0, job, broker, cpm, []int32{0, 1, 2, 3}, parts)
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		b.StartTimer()
		go func() { done <- cont.Run(ctx) }()
		for cont.processed.Value() < total {
			time.Sleep(50 * time.Microsecond)
		}
		b.StopTimer()
		cancel()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "msg/s")
}

type nopTask struct{}

func (nopTask) Init(*TaskContext) error { return nil }

func (nopTask) ProcessBatch([]IncomingMessageEnvelope, MessageCollector, Coordinator, int64) error {
	return nil
}

// BenchmarkTaskLoopMachineryAllocs measures the container's own per-message
// overhead — consumer poll, envelope arena, coordinator plumbing, metrics —
// by driving pollTask directly over a prefilled partition with a
// no-op task. The loop machinery must amortize to 0 allocs/op: the only
// allocations are the fetched batch slices, at most ~1 per poll of
// DefaultBatchSize messages.
func BenchmarkTaskLoopMachineryAllocs(b *testing.B) {
	broker := kafka.NewBroker()
	if err := broker.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		b.Fatal(err)
	}
	key, val := []byte("k"), make([]byte, 100)
	for i := 0; i < b.N; i++ {
		if _, err := broker.Produce("in", kafka.Message{Partition: 0, Key: key, Value: val, Timestamp: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	job := &JobSpec{
		Name:        "bench-alloc",
		Inputs:      []StreamSpec{{Topic: "in"}},
		TaskFactory: func() StreamTask { return nopTask{} },
	}
	cpm, err := NewCheckpointManager(broker, job)
	if err != nil {
		b.Fatal(err)
	}
	cont, err := newContainer(0, job, broker, cpm, []int32{0}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ti := cont.tasks[0]
	if err := ti.consumer.Assign(kafka.TopicPartition{Topic: "in", Partition: 0}); err != nil {
		b.Fatal(err)
	}
	if err := ti.task.Init(ti.ctx); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for cont.processed.Value() < int64(b.N) {
		if _, err := cont.pollTask(ctx, ti); err != nil {
			b.Fatal(err)
		}
	}
}
