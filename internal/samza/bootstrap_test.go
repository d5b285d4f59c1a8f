package samza

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

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

// restartProbeTask records, per task instance, every delivered record as
// topic@offset, and fails its block once it has seen crashAt stream records,
// when crashAt is set.
type restartProbeTask struct {
	mu      *sync.Mutex
	seen    []string
	streamN int
	crashAt int
}

func (t *restartProbeTask) Init(*TaskContext) error { return nil }

func (t *restartProbeTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range envs {
		t.seen = append(t.seen, fmt.Sprintf("%s@%d", envs[i].Stream, envs[i].Offset))
		if envs[i].Stream == "stream" {
			t.streamN++
		}
	}
	if t.crashAt > 0 && t.streamN >= t.crashAt {
		return fmt.Errorf("injected failure after %d stream records", t.streamN)
	}
	return nil
}

// TestRestartRereadsBootstrapInput crashes a task after checkpoints that
// hold the relation at its head: the restarted attempt still receives every
// relation record from the log start, in order, before any stream record,
// and resumes the stream from its checkpoint, not from the start.
func TestRestartRereadsBootstrapInput(t *testing.T) {
	const (
		relation = 30
		stream   = 60
	)
	b, r := testEnv()
	if err := b.CreateTopic("relation", kafka.TopicConfig{Partitions: 1, Compacted: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("stream", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "relation", 0, relation, "rel")
	produceN(t, b, "stream", 0, stream, "str")

	var mu sync.Mutex
	var attempts []*restartProbeTask
	job := &JobSpec{
		Name: "bootstrap-restart",
		Inputs: []StreamSpec{
			{Topic: "stream"},
			{Topic: "relation", Bootstrap: true},
		},
		BatchSize:   5,
		CommitEvery: 5,
		MaxRestarts: 1,
		TaskFactory: func() StreamTask {
			mu.Lock()
			defer mu.Unlock()
			task := &restartProbeTask{mu: &mu}
			if len(attempts) == 0 {
				task.crashAt = 20
			}
			attempts = append(attempts, task)
			return task
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Stop()
	last := fmt.Sprintf("stream@%d", stream-1)
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(attempts) < 2 {
			return false
		}
		seen := attempts[1].seen
		return len(seen) > 0 && seen[len(seen)-1] == last
	}, "the restarted attempt to reach the stream's end")
	rj.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 2 {
		t.Fatalf("%d task attempts, want the crashed one and one restart", len(attempts))
	}
	seen := attempts[1].seen
	for i := 0; i < relation; i++ {
		if want := fmt.Sprintf("relation@%d", i); seen[i] != want {
			t.Fatalf("restarted delivery %d is %s, want %s: the relation is not re-read from its start first", i, seen[i], want)
		}
	}
	var resume int64
	if _, err := fmt.Sscanf(seen[relation], "stream@%d", &resume); err != nil {
		t.Fatalf("restarted delivery %d is %s, want a stream record", relation, seen[relation])
	}
	if resume == 0 {
		t.Fatal("the restarted attempt read the stream from its start: no checkpoint was taken before the crash")
	}
	if n := len(seen) - relation; n != stream-int(resume) {
		t.Fatalf("restarted attempt got %d stream records from offset %d, want the %d up to the end", n, resume, stream-int(resume))
	}
}
