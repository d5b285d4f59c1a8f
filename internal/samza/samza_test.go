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
	"samzasql/internal/yarn"
)

// testEnv bundles a broker and a one-node cluster.
func testEnv() (*kafka.Broker, *JobRunner) {
	b := kafka.NewBroker()
	c := yarn.NewCluster()
	c.AddNode("n1", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	c.AddNode("n2", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	return b, NewJobRunner(b, c)
}

// passthroughTask copies every input message to an output topic.
type passthroughTask struct {
	out string
}

func (t *passthroughTask) Init(ctx *TaskContext) error { return nil }

func (t *passthroughTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, _ int64) error {
	for _, env := range envs {
		err := c.Send(OutgoingMessageEnvelope{
			Stream:    t.out,
			Partition: env.Partition,
			Key:       env.Key,
			Value:     env.Value,
			Timestamp: env.Timestamp,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func produceN(t *testing.T, b *kafka.Broker, topic string, partition int32, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := b.Produce(topic, kafka.Message{
			Partition: partition,
			Key:       []byte(fmt.Sprintf("%s-%d", prefix, i)),
			Value:     []byte(fmt.Sprintf("%s-v%d", prefix, i)),
			Timestamp: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// drainTopic reads everything currently in a topic.
func drainTopic(t *testing.T, b *kafka.Broker, topic string) []kafka.Record {
	t.Helper()
	n, err := b.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	var out []kafka.Record
	for p := int32(0); p < n; p++ {
		tp := kafka.TopicPartition{Topic: topic, Partition: p}
		hwm, _ := b.HighWatermark(tp)
		off, _ := b.StartOffset(tp)
		for off < hwm {
			msgs, wait, err := b.Fetch(tp, off, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if wait != nil {
				break
			}
			out = append(out, msgs...)
			off = msgs[len(msgs)-1].Offset + 1
		}
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestJobSpecValidate(t *testing.T) {
	factory := func() StreamTask { return &passthroughTask{} }
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"no name", JobSpec{Inputs: []StreamSpec{{Topic: "a"}}, TaskFactory: factory}, "name"},
		{"no inputs", JobSpec{Name: "j", TaskFactory: factory}, "inputs"},
		{"no factory", JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "a"}}}, "factory"},
		{"dup input", JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "a"}, {Topic: "a"}}, TaskFactory: factory}, "twice"},
		{"dup store", JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "a"}}, TaskFactory: factory,
			Stores: []StoreSpec{{Name: "s"}, {Name: "s"}}}, "twice"},
		{"negative batch size", JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "a"}}, TaskFactory: factory, BatchSize: -1}, "negative batch size"},
		{"negative metrics interval", JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "a"}}, TaskFactory: factory, MetricsInterval: -time.Second}, "negative metrics/trace interval"},
		{"negative trace interval", JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "a"}}, TaskFactory: factory, TraceInterval: -time.Second}, "negative metrics/trace interval"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanAssignmentGroupsByPartition(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 8}); err != nil {
		t.Fatal(err)
	}
	job := &JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "in"}}, Containers: 3,
		TaskFactory: func() StreamTask { return &passthroughTask{} }}
	a, err := planAssignment(b, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.taskPartitions) != 8 {
		t.Fatalf("%d tasks, want 8", len(a.taskPartitions))
	}
	if len(a.containerTasks) != 3 {
		t.Fatalf("%d containers, want 3", len(a.containerTasks))
	}
	// Every task appears exactly once.
	seen := map[int]bool{}
	for _, tasks := range a.containerTasks {
		for _, ti := range tasks {
			if seen[ti] {
				t.Fatalf("task %d assigned twice", ti)
			}
			seen[ti] = true
		}
	}
	if len(seen) != 8 {
		t.Fatalf("assigned %d tasks", len(seen))
	}
}

func TestPlanAssignmentRejectsMismatchedInputs(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.CreateTopic("a", kafka.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("bb", kafka.TopicConfig{Partitions: 8}); err != nil {
		t.Fatal(err)
	}
	job := &JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "a"}, {Topic: "bb"}},
		TaskFactory: func() StreamTask { return &passthroughTask{} }}
	if _, err := planAssignment(b, job); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("mismatched partitions: %v", err)
	}
}

func TestPlanAssignmentClampsContainers(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	job := &JobSpec{Name: "j", Inputs: []StreamSpec{{Topic: "in"}}, Containers: 10,
		TaskFactory: func() StreamTask { return &passthroughTask{} }}
	a, err := planAssignment(b, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.containerTasks) != 2 {
		t.Fatalf("%d containers for 2 partitions", len(a.containerTasks))
	}
}

func TestEndToEndPassthrough(t *testing.T) {
	b, r := testEnv()
	for _, topic := range []string{"in", "out"} {
		if err := b.CreateTopic(topic, kafka.TopicConfig{Partitions: 4}); err != nil {
			t.Fatal(err)
		}
	}
	for p := int32(0); p < 4; p++ {
		produceN(t, b, "in", p, 25, fmt.Sprintf("p%d", p))
	}
	job := &JobSpec{
		Name:        "passthrough",
		Inputs:      []StreamSpec{{Topic: "in"}},
		Containers:  2,
		TaskFactory: func() StreamTask { return &passthroughTask{out: "out"} },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(drainTopic(t, b, "out")) == 100
	}, "100 output messages")
	rj.Stop()

	out := drainTopic(t, b, "out")
	if len(out) != 100 {
		t.Fatalf("%d output messages, want 100", len(out))
	}
	// Partition affinity: input partition p lands in output partition p.
	counts := map[int32]int{}
	for _, m := range out {
		counts[m.Partition]++
		wantPrefix := fmt.Sprintf("p%d-", m.Partition)
		if !strings.HasPrefix(string(m.Key), wantPrefix) {
			t.Fatalf("message %q in partition %d", m.Key, m.Partition)
		}
	}
	for p := int32(0); p < 4; p++ {
		if counts[p] != 25 {
			t.Fatalf("partition %d has %d messages", p, counts[p])
		}
	}
	snap := rj.MetricsSnapshot()
	if snap.Counters["messages-processed"] != 100 || snap.Counters["messages-sent"] != 100 {
		t.Fatalf("metrics %v", snap)
	}
}

// countingTask records how many messages it processed and optionally crashes.
type countingTask struct {
	mu        *sync.Mutex
	seen      map[string]int
	crashAt   int // crash (once) when this many total messages seen; 0=never
	crashed   *atomic.Bool
	processed *atomic.Int64
}

func (t *countingTask) Init(ctx *TaskContext) error { return nil }

func (t *countingTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, _ int64) error {
	for _, env := range envs {
		t.mu.Lock()
		t.seen[string(env.Key)]++
		t.mu.Unlock()
		n := t.processed.Add(1)
		if t.crashAt > 0 && n == int64(t.crashAt) && t.crashed.CompareAndSwap(false, true) {
			return errors.New("injected task failure")
		}
	}
	return nil
}

func TestCheckpointResumeAfterCrash(t *testing.T) {
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 100, "m")

	var mu sync.Mutex
	seen := map[string]int{}
	var crashed atomic.Bool
	var processed atomic.Int64
	job := &JobSpec{
		Name:   "resume",
		Inputs: []StreamSpec{{Topic: "in"}},
		// A block is checkpointed whole or not at all, so the replay window
		// is CommitEvery rounded up to the block: blocks of CommitEvery
		// keep it at CommitEvery.
		BatchSize:   10,
		CommitEvery: 10,
		MaxRestarts: 2,
		TaskFactory: func() StreamTask {
			return &countingTask{mu: &mu, seen: seen, crashAt: 50, crashed: &crashed, processed: &processed}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		complete := true
		for i := 0; i < 100; i++ {
			if seen[fmt.Sprintf("m-%d", i)] == 0 {
				complete = false
				break
			}
		}
		return complete
	}, "all 100 messages processed across crash")
	rj.Stop()

	if !crashed.Load() {
		t.Fatal("crash was never injected")
	}
	mu.Lock()
	defer mu.Unlock()
	// At-least-once: everything seen; replay window bounded by CommitEvery.
	replayed := 0
	for _, n := range seen {
		if n > 1 {
			replayed++
		}
	}
	if replayed > 20 {
		t.Fatalf("replayed %d messages; checkpoint resume not working", replayed)
	}
}

func TestStateRestoreFromChangelog(t *testing.T) {
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 60, "k")

	// Task increments a store counter per message and crashes midway.
	var crashed atomic.Bool
	var restoredLen atomic.Int64

	job := &JobSpec{
		Name:        "stateful",
		Inputs:      []StreamSpec{{Topic: "in"}},
		Stores:      []StoreSpec{{Name: "counts", Changelog: true}},
		CommitEvery: 10,
		MaxRestarts: 2,
		TaskFactory: func() StreamTask {
			return &storeCrashTask{crashed: &crashed, restoredLen: &restoredLen}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return restoredLen.Load() > 0 }, "task restart with restored state")
	rj.Stop()
	if got := restoredLen.Load(); got < 20 || got > 60 {
		t.Fatalf("restored store had %d keys; changelog restore broken", got)
	}
}

// storeCrashTask writes each key to its store, crashes at message 30, and on
// restart records how many keys the restored store holds.
type storeCrashTask struct {
	ctx         *TaskContext
	n           int
	crashed     *atomic.Bool
	restoredLen *atomic.Int64
}

func (t *storeCrashTask) Init(ctx *TaskContext) error {
	t.ctx = ctx
	if t.crashed.Load() {
		t.restoredLen.Store(int64(ctx.Store("counts").Len()))
	}
	return nil
}

func (t *storeCrashTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, _ int64) error {
	for _, env := range envs {
		t.ctx.Store("counts").Put(env.Key, env.Value)
		t.n++
		if t.n == 30 && t.crashed.CompareAndSwap(false, true) {
			return errors.New("injected failure after 30 writes")
		}
	}
	return nil
}

// bootstrapProbeTask records the order in which streams deliver.
type bootstrapProbeTask struct {
	mu    *sync.Mutex
	order *[]string
}

func (t *bootstrapProbeTask) Init(ctx *TaskContext) error { return nil }

func (t *bootstrapProbeTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, _ int64) error {
	t.mu.Lock()
	for _, env := range envs {
		*t.order = append(*t.order, env.Stream)
	}
	t.mu.Unlock()
	return nil
}

func TestBootstrapStreamDrainsFirst(t *testing.T) {
	b, r := testEnv()
	for _, topic := range []string{"relation", "stream"} {
		if err := b.CreateTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	produceN(t, b, "relation", 0, 30, "rel")
	produceN(t, b, "stream", 0, 30, "str")

	var mu sync.Mutex
	var order []string
	job := &JobSpec{
		Name: "bootstrap",
		Inputs: []StreamSpec{
			{Topic: "stream"},
			{Topic: "relation", Bootstrap: true},
		},
		TaskFactory: func() StreamTask { return &bootstrapProbeTask{mu: &mu, order: &order} },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 60
	}, "all 60 messages")
	rj.Stop()

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 30; i++ {
		if order[i] != "relation" {
			t.Fatalf("message %d came from %q before bootstrap drained", i, order[i])
		}
	}
	for i := 30; i < 60; i++ {
		if order[i] != "stream" {
			t.Fatalf("message %d came from %q after bootstrap", i, order[i])
		}
	}
}

// shutdownTask asks the coordinator to stop after N messages. Past that,
// commitAt requests a commit at that message and failAt fails at it (0 =
// never).
type shutdownTask struct {
	n        int
	limit    int
	commitAt int
	failAt   int
}

func (t *shutdownTask) Init(ctx *TaskContext) error { return nil }
func (t *shutdownTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, coord Coordinator, _ int64) error {
	for range envs {
		t.n++
		if t.n == t.commitAt {
			coord.Commit()
		}
		if t.n == t.failAt {
			return errors.New("injected failure mid-block")
		}
		if t.limit > 0 && t.n >= t.limit {
			coord.Shutdown()
		}
	}
	return nil
}

// checkpointOf reads the offset job's task 0 last checkpointed for "in".
func checkpointOf(t *testing.T, b *kafka.Broker, job *JobSpec) int64 {
	t.Helper()
	cpm, err := NewCheckpointManager(b, job)
	if err != nil {
		t.Fatal(err)
	}
	cp, found, err := cpm.Read(TaskNameFor(0))
	if err != nil || !found {
		t.Fatalf("checkpoint: found=%v err=%v", found, err)
	}
	return cp.Offsets["in"]
}

// TestCoordinatorShutdown pins the block-boundary contract of Coordinator:
// a shutdown or a commit requested mid-block takes effect once the block is
// done and checkpoints the block's end offset, and an error mid-block
// checkpoints none of that block.
func TestCoordinatorShutdown(t *testing.T) {
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 50, "m")
	job := &JobSpec{
		Name:        "selfstop",
		Inputs:      []StreamSpec{{Topic: "in"}},
		BatchSize:   25,
		TaskFactory: func() StreamTask { return &shutdownTask{limit: 20} },
	}
	rj, err := r.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []yarn.ContainerStatus, 1)
	go func() { done <- rj.Wait() }()
	select {
	case statuses := <-done:
		for _, s := range statuses {
			if s.Err != nil {
				t.Fatalf("container error: %v", s.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job never stopped after coordinator shutdown")
	}
	if got := checkpointOf(t, b, job); got != 25 {
		t.Fatalf("shutdown at message 20 checkpointed offset %d, want the block's end 25", got)
	}

	// A commit requested at message 10 checkpoints the first block's end;
	// the failure at message 30 keeps every offset of the second block out
	// of the checkpoint.
	job = &JobSpec{
		Name:        "commit-then-fail",
		Inputs:      []StreamSpec{{Topic: "in"}},
		BatchSize:   25,
		TaskFactory: func() StreamTask { return &shutdownTask{commitAt: 10, failAt: 30} },
	}
	rj, err = r.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- rj.Wait() }()
	select {
	case statuses := <-done:
		failed := false
		for _, s := range statuses {
			failed = failed || s.Err != nil
		}
		if !failed {
			t.Fatal("job survived a task failure with no restarts allowed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job never stopped after a task failure")
	}
	if got := checkpointOf(t, b, job); got != 25 {
		t.Fatalf("commit at message 10 then failure at 30 checkpointed offset %d, want 25", got)
	}
}

func TestCheckpointManagerRoundTrip(t *testing.T) {
	b := kafka.NewBroker()
	job := &JobSpec{Name: "cp"}
	m, err := NewCheckpointManager(b, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := m.Read(TaskNameFor(0)); err != nil || found {
		t.Fatalf("read of missing checkpoint: %v %v", found, err)
	}
	cp := Checkpoint{Task: TaskNameFor(0), Offsets: map[string]int64{"in": 42}}
	if err := m.Write(cp); err != nil {
		t.Fatal(err)
	}
	cp2 := Checkpoint{Task: TaskNameFor(0), Offsets: map[string]int64{"in": 99}}
	if err := m.Write(cp2); err != nil {
		t.Fatal(err)
	}
	got, found, err := m.Read(TaskNameFor(0))
	if err != nil || !found || got.Offsets["in"] != 99 {
		t.Fatalf("read: %+v %v %v", got, found, err)
	}
}
