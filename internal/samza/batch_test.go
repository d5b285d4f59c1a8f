package samza

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// batchRecordingTask records the offsets of every delivered block and
// forwards its input through the collector's batched sink.
type batchRecordingTask struct {
	mu      *sync.Mutex
	batches *[][]int64 // offsets of each delivered batch, in order
	out     string
}

func (t *batchRecordingTask) Init(ctx *TaskContext) error { return nil }

func (t *batchRecordingTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, pollNs int64) error {
	offs := make([]int64, len(envs))
	msgs := make([]kafka.Message, len(envs))
	for i, env := range envs {
		offs[i] = env.Offset
		msgs[i] = kafka.Message{
			Topic: t.out, Partition: env.Partition,
			Key: env.Key, Value: env.Value, Timestamp: env.Timestamp,
		}
	}
	t.mu.Lock()
	*t.batches = append(*t.batches, offs)
	t.mu.Unlock()
	return c.SendBatch(t.out, msgs)
}

// runBatchJob submits a single-partition job with the given BatchSize over
// n preloaded messages, waits for full passthrough, and returns the
// recorded batch offsets.
func runBatchJob(t *testing.T, batchSize, n int) [][]int64 {
	t.Helper()
	b, r := testEnv()
	for _, topic := range []string{"in", "out"} {
		if err := b.CreateTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	produceN(t, b, "in", 0, n, "m")
	var mu sync.Mutex
	var batches [][]int64
	job := &JobSpec{
		Name:       "batch-delivery",
		Inputs:     []StreamSpec{{Topic: "in"}},
		Containers: 1,
		BatchSize:  batchSize,
		TaskFactory: func() StreamTask {
			return &batchRecordingTask{mu: &mu, batches: &batches, out: "out"}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(drainTopic(t, b, "out")) == n
	}, fmt.Sprintf("%d output messages", n))
	rj.Stop()
	if got := len(drainTopic(t, b, "out")); got != n {
		t.Fatalf("%d output messages, want %d", got, n)
	}
	snap := rj.MetricsSnapshot()
	if snap.Counters["messages-processed"] != int64(n) || snap.Counters["messages-sent"] != int64(n) {
		t.Fatalf("metrics after batch run: %v", snap.Counters)
	}
	mu.Lock()
	defer mu.Unlock()
	return batches
}

// flatten checks the recorded batches cover offsets 0..n-1 in order —
// batch delivery must not reorder, skip or replay messages.
func flattenBatches(t *testing.T, batches [][]int64, n int) {
	t.Helper()
	var next int64
	for _, offs := range batches {
		if len(offs) == 0 {
			t.Fatal("container delivered an empty batch")
		}
		for _, o := range offs {
			if o != next {
				t.Fatalf("batch offsets out of order: got %d, want %d (batches %v)", o, next, batches)
			}
			next++
		}
	}
	if next != int64(n) {
		t.Fatalf("batches covered %d offsets, want %d", next, n)
	}
}

// TestBatchedTaskReceivesBlocks verifies the default delivery: a task gets
// whole multi-message blocks through ProcessBatch, covering every offset
// exactly once, with the batched collector sink wired.
func TestBatchedTaskReceivesBlocks(t *testing.T) {
	const n = 300
	batches := runBatchJob(t, 0, n)
	flattenBatches(t, batches, n)
	multi := 0
	for _, offs := range batches {
		if len(offs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("no batch held more than one message across %d batches — delivery is not vectorized", len(batches))
	}
}

// TestBatchSizeOneDeliversSingleRowBlocks checks the boundary granularity:
// BatchSize = 1 — per-tuple execution — delivers one message per block.
func TestBatchSizeOneDeliversSingleRowBlocks(t *testing.T) {
	const n = 40
	batches := runBatchJob(t, 1, n)
	for _, offs := range batches {
		if len(offs) != 1 {
			t.Fatalf("batch of %d messages with BatchSize=1", len(offs))
		}
	}
	flattenBatches(t, batches, n)
}

// gatedTask holds its first delivery until release is closed, so a test can
// look at a task that has polled a block but not finished it.
type gatedTask struct {
	entered  chan struct{} // closed when the first delivery starts
	release  chan struct{}
	once     sync.Once
	finished *atomic.Int64
}

func (g *gatedTask) Init(*TaskContext) error { return nil }

func (g *gatedTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	g.finished.Add(int64(len(envs)))
	return nil
}

// TestLagCountsUnfinishedBlock pins lag to what a task has finished, not to
// what its consumer has fetched: with the whole backlog polled as one block
// and the task held inside it, every message of the block still counts as
// lag, and lag reads zero only once the task is through.
func TestLagCountsUnfinishedBlock(t *testing.T) {
	const n = 100 // one block at the default cap
	// The subtest name is kept from when a per-message delivery path ran
	// beside the block path; every task now receives blocks.
	t.Run("batched=true", func(t *testing.T) {
		b, r := testEnv()
		if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
		produceN(t, b, "in", 0, n, "m")
		var finished atomic.Int64
		g := &gatedTask{entered: make(chan struct{}), release: make(chan struct{}), finished: &finished}
		job := &JobSpec{
			Name:        "lag-mid-block",
			Inputs:      []StreamSpec{{Topic: "in"}},
			TaskFactory: func() StreamTask { return g },
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rj, err := r.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		defer rj.Stop()
		released := false
		defer func() {
			if !released {
				close(g.release)
			}
		}()
		select {
		case <-g.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("task never received its first delivery")
		}
		if lag := rj.UpdateLags(); lag != n {
			t.Fatalf("lag %d while the task holds its first message, want all %d", lag, n)
		}
		close(g.release)
		released = true
		waitFor(t, 5*time.Second, func() bool { return rj.UpdateLags() == 0 }, "lag 0 after the block")
		if got := finished.Load(); got != n {
			t.Fatalf("task finished %d messages, want %d", got, n)
		}
	})
}
