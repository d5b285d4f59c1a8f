package samza

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// rendezvousTask blocks its first block until `want` tasks are inside
// ProcessBatch at the same time. Under the sequential container loop this
// deadlocks (and times out); under per-task goroutines it completes.
type rendezvousTask struct {
	want    int32
	arrived *atomic.Int32
	release chan struct{}
	entered bool
}

func (t *rendezvousTask) Init(ctx *TaskContext) error { return nil }

func (t *rendezvousTask) ProcessBatch([]IncomingMessageEnvelope, MessageCollector, Coordinator, int64) error {
	if t.entered {
		return nil
	}
	t.entered = true
	if t.arrived.Add(1) == t.want {
		close(t.release)
	}
	select {
	case <-t.release:
		return nil
	case <-time.After(5 * time.Second):
		return errors.New("tasks did not run concurrently")
	}
}

func TestTasksRunConcurrentlyInOneContainer(t *testing.T) {
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 4; p++ {
		produceN(t, b, "in", p, 5, fmt.Sprintf("p%d", p))
	}
	var arrived atomic.Int32
	release := make(chan struct{})
	job := &JobSpec{
		Name:       "rendezvous",
		Inputs:     []StreamSpec{{Topic: "in"}},
		Containers: 1,
		TaskFactory: func() StreamTask {
			return &rendezvousTask{want: 4, arrived: &arrived, release: release}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 8*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 20
	}, "all 20 messages across 4 concurrent tasks")
	for _, s := range rj.Stop() {
		if s.Err != nil {
			t.Fatalf("container error: %v", s.Err)
		}
	}
}

// gaugeTask measures how many tasks process messages at once.
type gaugeTask struct {
	inFlight *atomic.Int32
	max      *atomic.Int32
}

func (t *gaugeTask) Init(ctx *TaskContext) error { return nil }

func (t *gaugeTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	for range envs {
		cur := t.inFlight.Add(1)
		for {
			old := t.max.Load()
			if cur <= old || t.max.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond) // widen the overlap window
		t.inFlight.Add(-1)
	}
	return nil
}

func runGaugeJob(t *testing.T, parallelism int) int32 {
	t.Helper()
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 4; p++ {
		produceN(t, b, "in", p, 40, fmt.Sprintf("p%d", p))
	}
	var inFlight, max atomic.Int32
	job := &JobSpec{
		Name:            "gauge",
		Inputs:          []StreamSpec{{Topic: "in"}},
		Containers:      1,
		TaskParallelism: parallelism,
		TaskFactory: func() StreamTask {
			return &gaugeTask{inFlight: &inFlight, max: &max}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 160
	}, "all 160 messages")
	rj.Stop()
	return max.Load()
}

func TestTaskParallelismOneSerializesProcessing(t *testing.T) {
	if got := runGaugeJob(t, 1); got != 1 {
		t.Fatalf("TaskParallelism=1 saw %d overlapping Process calls, want 1", got)
	}
}

func TestTaskParallelismUnboundedOverlaps(t *testing.T) {
	if got := runGaugeJob(t, 0); got < 2 {
		t.Fatalf("TaskParallelism=0 saw max overlap %d, want >= 2", got)
	}
}

// storeWriteTask writes every message key to a changelog-backed store and
// optionally injects one crash partway through a chosen partition.
type storeWriteTask struct {
	ctx     *TaskContext
	n       int
	mu      *sync.Mutex
	seen    map[string]int
	crashAt int // messages into the chosen partition; 0 = never
	crashOn int32
	crashed *atomic.Bool
}

func (t *storeWriteTask) Init(ctx *TaskContext) error {
	t.ctx = ctx
	return nil
}

func (t *storeWriteTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, _ int64) error {
	for _, env := range envs {
		t.ctx.Store("state").Put(env.Key, env.Value)
		t.mu.Lock()
		t.seen[string(env.Key)]++
		t.mu.Unlock()
		t.n++
		if t.crashAt > 0 && env.Partition == t.crashOn && t.n == t.crashAt &&
			t.crashed.CompareAndSwap(false, true) {
			return errors.New("injected mid-run task failure")
		}
	}
	return nil
}

// TestParallelTasksCrashRestartConsistency runs 4 tasks with changelog
// stores concurrently, kills the container mid-run via an injected task
// failure, and checks that after restart every message is delivered
// at-least-once, checkpoints land per task, and each task's changelog
// partition holds only that task's keys.
func TestParallelTasksCrashRestartConsistency(t *testing.T) {
	const parts, perPart = int32(4), 120
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < parts; p++ {
		produceN(t, b, "in", p, perPart, fmt.Sprintf("p%d", p))
	}
	var mu sync.Mutex
	seen := map[string]int{}
	var crashed atomic.Bool
	job := &JobSpec{
		Name:        "crashrestart",
		Inputs:      []StreamSpec{{Topic: "in"}},
		Containers:  1,
		Stores:      []StoreSpec{{Name: "state", Changelog: true}},
		CommitEvery: 10,
		MaxRestarts: 2,
		TaskFactory: func() StreamTask {
			return &storeWriteTask{mu: &mu, seen: seen, crashAt: 60, crashOn: 2, crashed: &crashed}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	total := int(parts) * perPart
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == total
	}, "every key delivered at least once across the crash")
	rj.Stop()

	if !crashed.Load() {
		t.Fatal("crash was never injected")
	}
	// At-least-once with bounded replay: healthy tasks checkpoint when the
	// supervisor cancels them, and the crashed task replays at most its
	// uncommitted window plus the in-flight batch.
	mu.Lock()
	replayed := 0
	for _, n := range seen {
		replayed += n - 1
	}
	mu.Unlock()
	if replayed > perPart {
		t.Fatalf("replayed %d messages after restart; per-task checkpointing broken", replayed)
	}
	// Every task wrote a final checkpoint covering its whole partition.
	cpm, err := NewCheckpointManager(b, job)
	if err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < parts; p++ {
		cp, found, err := cpm.Read(TaskNameFor(p))
		if err != nil || !found {
			t.Fatalf("task %d checkpoint: found=%v err=%v", p, found, err)
		}
		if cp.Offsets["in"] != perPart {
			t.Fatalf("task %d checkpointed offset %d, want %d", p, cp.Offsets["in"], perPart)
		}
	}
	// Changelog partitions stay task-private: partition p only ever holds
	// keys produced by the task owning input partition p.
	clTopic := job.ChangelogTopic("state")
	for _, m := range drainTopic(t, b, clTopic) {
		wantPrefix := fmt.Sprintf("p%d-", m.Partition)
		if !strings.HasPrefix(string(m.Key), wantPrefix) {
			t.Fatalf("changelog partition %d holds foreign key %q", m.Partition, m.Key)
		}
	}
}

// failingTask errors immediately; sibling tasks should be cancelled and the
// container should surface the first error.
type failingTask struct {
	partition int32 // partition whose task fails
}

func (t *failingTask) Init(ctx *TaskContext) error { return nil }

func (t *failingTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	if envs[0].Partition == t.partition {
		return errors.New("boom")
	}
	return nil
}

func TestFirstTaskErrorPropagates(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 4; p++ {
		produceN(t, b, "in", p, 10, fmt.Sprintf("p%d", p))
	}
	job := &JobSpec{
		Name:        "failprop",
		Inputs:      []StreamSpec{{Topic: "in"}},
		TaskFactory: func() StreamTask { return &failingTask{partition: 1} },
	}
	cpm, err := NewCheckpointManager(b, job)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := newContainer(0, job, b, cpm, []int32{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cont.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("container returned %v, want the task's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("container did not stop after a task error")
	}
}

func TestCoordinatorShutdownStopsSiblingTasks(t *testing.T) {
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 4; p++ {
		produceN(t, b, "in", p, 30, fmt.Sprintf("p%d", p))
	}
	job := &JobSpec{
		Name:       "parshutdown",
		Inputs:     []StreamSpec{{Topic: "in"}},
		Containers: 1,
		TaskFactory: func() StreamTask {
			// Only partition 0's task ever requests shutdown; the other
			// three must still exit cleanly.
			return &partitionShutdownTask{limit: 10}
		},
	}
	rj, err := r.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for _, s := range rj.Wait() {
			if s.Err != nil {
				t.Errorf("container error: %v", s.Err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sibling tasks kept running after coordinator shutdown")
	}
}

type partitionShutdownTask struct {
	n     int
	limit int
}

func (t *partitionShutdownTask) Init(ctx *TaskContext) error { return nil }

func (t *partitionShutdownTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, coord Coordinator, _ int64) error {
	if envs[0].Partition != 0 {
		return nil
	}
	t.n += len(envs)
	if t.n >= t.limit {
		coord.Shutdown()
	}
	return nil
}
