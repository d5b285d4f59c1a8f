package samza

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"samzasql/internal/kafka"
)

// bootstrapRecorder records every delivery it gets — batch sizes and offsets
// — and, on its first delivery, starts appending to the relation topic from
// another goroutine, so the rest of the bootstrap runs against a topic that
// keeps growing past the watermark the bootstrap observed.
type bootstrapRecorder struct {
	broker  *kafka.Broker
	topic   string
	extra   int
	started sync.Once
	done    chan struct{}

	batches []int   // size of each ProcessBatch delivery
	offsets []int64 // every delivered offset, in delivery order
}

func (r *bootstrapRecorder) Init(*TaskContext) error { return nil }

func (r *bootstrapRecorder) appendConcurrently() {
	r.started.Do(func() {
		go func() {
			defer close(r.done)
			for i := 0; i < r.extra; i++ {
				// The appender's failure mode is a bootstrap that over-reads;
				// a produce error would show as a short topic below.
				_, _ = r.broker.Produce(r.topic, kafka.Message{
					Partition: 0,
					Key:       []byte(fmt.Sprintf("late-%d", i)),
					Value:     []byte("late"),
				})
			}
		}()
	})
}

func (r *bootstrapRecorder) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	r.appendConcurrently()
	r.batches = append(r.batches, len(envs))
	for i := range envs {
		r.offsets = append(r.offsets, envs[i].Offset)
	}
	return nil
}

// TestBootstrapStopsAtHighWatermark pins the bootstrap cut-off: with the
// relation topic appended to concurrently, the bootstrap delivers exactly the offsets below the high
// watermark it observed at start — the last block cut short there, not
// rounded up to the fetch — and leaves the consumer positioned on the
// watermark, so the records past it reach the task through the poll loop.
func TestBootstrapStopsAtHighWatermark(t *testing.T) {
	const extra = 400
	cases := []struct {
		name      string
		batchSize int
		wantBatch int // largest delivery the task may see
		preloaded int // the watermark the bootstrap will observe
	}{
		{"batch-1", 1, 1, 100},
		{"batch-7", 7, 7, 100}, // 100 = 14*7 + 2: the last block is cut at the watermark
		{"batch-256", 256, 256, 100},
		// BatchSize 0 reads blocks of the poll cap: two full ones, then one
		// cut at the watermark.
		{"batch-default", 0, DefaultBatchSize, 2*DefaultBatchSize + 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			preloaded := tc.preloaded
			b := kafka.NewBroker()
			if err := b.CreateTopic("relation", kafka.TopicConfig{Partitions: 1, Compacted: true}); err != nil {
				t.Fatal(err)
			}
			produceN(t, b, "relation", 0, preloaded, "rel")
			rec := &bootstrapRecorder{broker: b, topic: "relation", extra: extra, done: make(chan struct{})}
			job := &JobSpec{
				Name:        "bootstrap-hwm-" + tc.name,
				Inputs:      []StreamSpec{{Topic: "relation", Bootstrap: true}},
				BatchSize:   tc.batchSize,
				TaskFactory: func() StreamTask { return rec },
			}
			cpm, err := NewCheckpointManager(b, job)
			if err != nil {
				t.Fatal(err)
			}
			cont, err := newContainer(0, job, b, cpm, []int32{0}, 1)
			if err != nil {
				t.Fatal(err)
			}
			ti := cont.tasks[0]
			tp := kafka.TopicPartition{Topic: "relation", Partition: 0}
			if err := ti.consumer.Assign(tp); err != nil {
				t.Fatal(err)
			}
			defer ti.consumer.Close()

			if err := cont.bootstrap(context.Background(), ti); err != nil {
				t.Fatal(err)
			}
			<-rec.done // the appender finished; nothing else touches rec

			if len(rec.offsets) != preloaded {
				t.Fatalf("bootstrap delivered %d messages, want exactly the %d below the watermark", len(rec.offsets), preloaded)
			}
			for i, off := range rec.offsets {
				if off != int64(i) {
					t.Fatalf("delivery %d has offset %d, want %d", i, off, i)
				}
			}
			if pos, _ := ti.consumer.Position(tp); pos != int64(preloaded) {
				t.Fatalf("consumer left at %d after bootstrap, want the watermark %d", pos, preloaded)
			}
			if got := ti.input("relation").done.Load(); got != int64(preloaded) {
				t.Fatalf("finished offset %d after bootstrap, want %d", got, preloaded)
			}
			for i, n := range rec.batches {
				if n > tc.wantBatch {
					t.Fatalf("block %d has %d rows, more than BatchSize %d", i, n, tc.wantBatch)
				}
			}
			if wantBlocks := (preloaded + tc.wantBatch - 1) / tc.wantBatch; len(rec.batches) != wantBlocks {
				t.Fatalf("%d blocks, want %d", len(rec.batches), wantBlocks)
			}
			if hwm, _ := b.HighWatermark(tp); hwm != int64(preloaded+extra) {
				t.Fatalf("topic ended at %d, want %d: the concurrent appender did not run", hwm, preloaded+extra)
			}
		})
	}
}
