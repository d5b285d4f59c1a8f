package samza

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/profile"
	"samzasql/internal/trace"
)

// TaskContext is handed to StreamTask.Init, exposing the task's identity,
// configuration, local stores and metrics — the Samza TaskContext analog.
type TaskContext struct {
	// Job is the owning job's spec.
	Job *JobSpec
	// Task is this task's name.
	Task TaskName
	// Partition is the input partition this task owns across all inputs.
	Partition int32
	// Metrics is the container's metric registry.
	Metrics *metrics.Registry
	// Config aliases the job's Config map.
	Config map[string]string
	// Collector sends messages to output streams. The framework binds it
	// once per task before Init and passes the same value to every
	// ProcessBatch call, so tasks may capture it at Init and build per-task
	// senders instead of rebinding per block.
	Collector MessageCollector
	// Trace is ignored and left nil by the container. It stays only
	// because the benchmark module's task adapter still sets it; it goes
	// with the internal/trace stub (ROADMAP item 6).
	Trace *trace.Active

	stores map[string]kv.Store
}

// Store returns the named local store declared in the job spec. It panics on
// undeclared names — that is a programming error in the job, not a runtime
// condition.
func (c *TaskContext) Store(name string) kv.Store {
	s, ok := c.stores[name]
	if !ok {
		panic(fmt.Sprintf("samza: task %s requested undeclared store %q", c.Task, name))
	}
	return s
}

// collector implements MessageCollector over the broker. It is stateless
// apart from the atomic sent counter, so one instance is safely shared by
// every task goroutine in the container.
type collector struct {
	broker *kafka.Broker
	sent   *metrics.Counter
}

func (c *collector) Send(env OutgoingMessageEnvelope) error {
	// env.Partition passes through unchanged: non-negative selects that
	// partition explicitly, negative delegates to the broker's key hash
	// (see OutgoingMessageEnvelope.Partition).
	_, err := c.broker.Produce(env.Stream, kafka.Message{
		Partition: env.Partition,
		Key:       env.Key,
		Value:     env.Value,
		Timestamp: env.Timestamp,
	})
	if err == nil {
		c.sent.Inc()
	}
	return err
}

// SendBatch implements MessageCollector: one producer call appends a whole
// block's output messages, preserving order. The broker copies the key/value
// bytes into the log, so the caller may reuse msgs and the bytes on return.
func (c *collector) SendBatch(stream string, msgs []kafka.Message) error {
	if err := c.broker.ProduceBatch(stream, msgs); err != nil {
		return err
	}
	c.sent.Add(int64(len(msgs)))
	return nil
}

// coordinatorState implements Coordinator. Each task loop reuses one
// instance across blocks, resetting it per delivery, so the hot path
// performs no per-block allocation for coordinator plumbing.
type coordinatorState struct {
	commitRequested   bool
	shutdownRequested bool
}

func (c *coordinatorState) Commit()   { c.commitRequested = true }
func (c *coordinatorState) Shutdown() { c.shutdownRequested = true }

func (c *coordinatorState) reset() {
	c.commitRequested = false
	c.shutdownRequested = false
}

// taskInstance is one running task inside a container. All of its mutable
// state is owned by the single goroutine running its loop; tasks own
// disjoint partitions and disjoint stores, which is what makes the
// container's task-level parallelism safe under Samza's semantics.
type taskInstance struct {
	name      TaskName
	partition int32
	task      StreamTask
	// pollMax caps messages per poll (JobSpec.BatchSize resolved).
	pollMax int
	// consumer's poll buffer is the block every ProcessBatch receives.
	consumer  *kafka.Consumer
	ctx       *TaskContext
	changelog []taskChangelog
	processed int // messages since last commit
	// coord is the per-loop Coordinator handed to ProcessBatch, reset per
	// block instead of allocated per block.
	coord coordinatorState
	// inputs holds, per input stream, how far the task has got through its
	// partition of it; checkpoints and lag are read from here.
	inputs []taskInput
	// procLat and commitLat are pre-bound per-task latency timers
	// ("task.<name>.{process,commit}-ns"); hoisting them here keeps the
	// per-block path free of registry lookups and allocations.
	procLat   metrics.Timer
	commitLat metrics.Timer
	// health is the supervisor-visible liveness state (taskHealth* consts),
	// read by Container.TaskHealth for the /healthz endpoint.
	health atomic.Int32
}

// taskInput is one input partition of a task.
type taskInput struct {
	tp kafka.TopicPartition
	// done is the offset after the last block the task finished
	// processing. Checkpoints are written from here, not from the consumer
	// position: the consumer advances past a whole block before the task
	// starts it, and committing that position mid-block would skip
	// unprocessed messages after a crash. Lag is measured from here for the
	// same reason: a task in the middle of a block has not caught up. It is
	// -1 until Run has positioned the input. The task goroutine stores it;
	// the metrics reporter loads it.
	done atomic.Int64
	// lag is the "kafka.lag.<topic>.<partition>" gauge UpdateLags sets.
	lag *metrics.Gauge
}

// input returns the task's input for topic; every message a task polls
// comes from one of its inputs.
func (ti *taskInstance) input(topic string) *taskInput {
	for i := range ti.inputs {
		if ti.inputs[i].tp.Topic == topic {
			return &ti.inputs[i]
		}
	}
	panic(fmt.Sprintf("samza: task %s polled unassigned topic %q", ti.name, topic))
}

// taskChangelog is one of a task's changelog-backed stores, under its name.
type taskChangelog struct {
	store string
	*kv.ChangelogStore
}

// changelogErr returns the first sticky changelog failure among the task's
// stores, naming the store. A block whose writes the changelog refused must
// fail the task before anything checkpoints offsets past it: the restarted
// task then restores what the changelog holds and replays the rest.
func (ti *taskInstance) changelogErr() error {
	for _, cl := range ti.changelog {
		if err := cl.Err(); err != nil {
			return fmt.Errorf("samza: %s store %s: %w", ti.name, cl.store, err)
		}
	}
	return nil
}

// Task liveness states reported by Container.TaskHealth.
const (
	taskHealthInit int32 = iota
	taskHealthRunning
	taskHealthStopped
	taskHealthFailed
)

func taskHealthString(s int32) string {
	switch s {
	case taskHealthRunning:
		return "running"
	case taskHealthStopped:
		return "stopped"
	case taskHealthFailed:
		return "failed"
	default:
		return "init"
	}
}

// Container runs a set of tasks against the broker, mirroring a Samza
// container: restore state, bootstrap, then one poll-process-commit loop
// per task, each in a dedicated goroutine under an errgroup-style
// supervisor.
type Container struct {
	ID      int
	job     *JobSpec
	broker  *kafka.Broker
	cpm     *CheckpointManager
	tasks   []*taskInstance
	Metrics *metrics.Registry

	// coll is the shared broker-backed collector (safe for concurrent use).
	coll *collector
	// sem, when non-nil, bounds how many tasks process blocks at once
	// (JobSpec.TaskParallelism).
	sem chan struct{}
	// processed and commits are hoisted counters so the per-block path
	// never takes the registry lock.
	processed *metrics.Counter
	commits   *metrics.Counter
}

// errStopRequested signals an orderly whole-container stop requested by a
// task's Coordinator.Shutdown; the supervisor translates it into
// cancellation of the sibling tasks rather than a failure.
var errStopRequested = errors.New("samza: task requested shutdown")

// newContainer builds (but does not run) a container for the given task
// partition list.
func newContainer(id int, job *JobSpec, broker *kafka.Broker, cpm *CheckpointManager, partitions []int32, inputPartitions int32) (*Container, error) {
	c := &Container{
		ID:      id,
		job:     job,
		broker:  broker,
		cpm:     cpm,
		Metrics: metrics.NewRegistry(),
	}
	c.coll = &collector{broker: broker, sent: c.Metrics.Counter("messages-sent")}
	c.processed = c.Metrics.Counter("messages-processed")
	c.commits = c.Metrics.Counter("commits")
	if n := job.TaskParallelism; n > 0 && n < len(partitions) {
		c.sem = make(chan struct{}, n)
	}
	for _, p := range partitions {
		ti, err := c.buildTask(p, inputPartitions)
		if err != nil {
			return nil, err
		}
		c.tasks = append(c.tasks, ti)
	}
	return c, nil
}

func (c *Container) buildTask(partition, inputPartitions int32) (*taskInstance, error) {
	name := TaskNameFor(partition)
	stores := map[string]kv.Store{}
	var changelogs []taskChangelog
	for _, spec := range c.job.Stores {
		// Store stack, bottom to top: the paged base store (key and value
		// bytes in pages behind a hash index; key order only once an
		// operator calls Range), optional changelog mirroring, latency
		// instrumentation. The changelog writes through: every store write
		// reaches the changelog before it returns, which keeps state ahead
		// of offsets for replay detection.
		s := kv.NewStore()
		if spec.Changelog {
			cl, err := kv.NewChangelogStore(s, c.broker, c.job.ChangelogTopic(spec.Name), inputPartitions, partition)
			if err != nil {
				return nil, err
			}
			changelogs = append(changelogs, taskChangelog{spec.Name, cl})
			s = cl
		}
		s = kv.Instrument(s, c.Metrics, spec.Name)
		stores[spec.Name] = s
	}
	tctx := &TaskContext{
		Job:       c.job,
		Task:      name,
		Partition: partition,
		Metrics:   c.Metrics,
		Config:    c.job.Config,
		Collector: c.coll,
		stores:    stores,
	}
	consumer := kafka.NewConsumer(c.broker, c.job.Name)
	task := c.job.TaskFactory()
	pollMax := c.job.BatchSize
	if pollMax <= 0 {
		pollMax = DefaultBatchSize
	}
	ti := &taskInstance{
		name:      name,
		partition: partition,
		task:      task,
		pollMax:   pollMax,
		consumer:  consumer,
		ctx:       tctx,
		changelog: changelogs,
		inputs:    make([]taskInput, len(c.job.Inputs)),
		procLat:   c.Metrics.Timer("task." + string(name) + ".process-ns"),
		commitLat: c.Metrics.Timer("task." + string(name) + ".commit-ns"),
	}
	for i, in := range c.job.Inputs {
		ti.inputs[i].tp = kafka.TopicPartition{Topic: in.Topic, Partition: partition}
		ti.inputs[i].lag = c.Metrics.Gauge(fmt.Sprintf("kafka.lag.%s.%d", in.Topic, partition))
		ti.inputs[i].done.Store(-1)
	}
	return ti, nil
}

// TaskHealth reports the liveness state of every task in the container,
// keyed by task name. Safe to call concurrently with Run.
func (c *Container) TaskHealth() map[string]string {
	out := make(map[string]string, len(c.tasks))
	for _, ti := range c.tasks {
		out[string(ti.name)] = taskHealthString(ti.health.Load())
	}
	return out
}

// UpdateLags refreshes every task's per-partition lag gauges and returns the
// container-wide total. A partition's lag is its high watermark minus the
// next offset the task has finished, not the one its consumer will fetch: a
// task in the middle of a polled block still owes the rest of it. Safe to
// call concurrently with Run.
func (c *Container) UpdateLags() int64 {
	var total int64
	for _, ti := range c.tasks {
		for i := range ti.inputs {
			in := &ti.inputs[i]
			done := in.done.Load()
			if done < 0 {
				continue
			}
			hwm, err := c.broker.HighWatermark(in.tp)
			if err != nil {
				continue
			}
			lag := max(hwm-done, 0)
			in.lag.Set(lag)
			total += lag
		}
	}
	return total
}

// Run executes the container until ctx is cancelled, a task requests
// shutdown, or a task returns an error. The returned error is nil on orderly
// shutdown (including context cancellation); on a task failure the first
// error is returned after every sibling task has been cancelled and drained.
func (c *Container) Run(ctx context.Context) error {
	// Phase 1: restore local state from changelogs (§4.3).
	for _, ti := range c.tasks {
		for _, cl := range ti.changelog {
			if err := cl.Restore(); err != nil {
				return fmt.Errorf("samza: %s state restore: %w", ti.name, err)
			}
		}
	}
	// Phase 2: position consumers from checkpoints.
	for _, ti := range c.tasks {
		cp, found, err := c.cpm.Read(ti.name)
		if err != nil {
			return fmt.Errorf("samza: %s checkpoint read: %w", ti.name, err)
		}
		for i := range ti.inputs {
			in := &ti.inputs[i]
			if err := ti.consumer.Assign(in.tp); err != nil {
				return fmt.Errorf("samza: %s assign %s: %w", ti.name, in.tp, err)
			}
			if found {
				if off, ok := cp.Offsets[in.tp.Topic]; ok {
					ti.consumer.Seek(in.tp, off)
				}
			}
			if pos, ok := ti.consumer.Position(in.tp); ok {
				in.done.Store(pos)
			}
		}
	}
	// Phase 3: initialize tasks (after state restore, per the API contract).
	for _, ti := range c.tasks {
		if err := ti.task.Init(ti.ctx); err != nil {
			return fmt.Errorf("samza: %s init: %w", ti.name, err)
		}
	}
	// Start the metrics reporter (when configured) before the task loops,
	// on its own context: it must outlive the tasks so the final flush
	// after wg.Wait() captures complete end-of-run metrics.
	repCtx, repCancel := context.WithCancel(context.Background())
	var repWG sync.WaitGroup
	if c.job.MetricsInterval > 0 {
		if err := c.broker.EnsureTopic(DefaultMetricsTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
			repCancel()
			return fmt.Errorf("samza: %s topic: %w", DefaultMetricsTopic, err)
		}
		// Each snapshot first refreshes the pull-style gauges nothing on the
		// hot path touches: consumer lag, and the runtime/metrics collector's
		// goroutine count, live heap, GC pauses and scheduler latencies, so
		// they travel __metrics at zero hot-path cost. The final flush does
		// too, so it carries complete end-of-run counters.
		rtc := profile.NewCollector(c.Metrics)
		collect := func() Record {
			c.UpdateLags()
			rtc.Refresh()
			return &MetricsSnapshotMessage{Metrics: c.Metrics.Snapshot()}
		}
		pub := NewPublisher(c.broker, DefaultMetricsTopic, c.job.Name, c.ID)
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			pub.Run(repCtx, c.job.MetricsInterval, collect)
		}()
	}
	// Phases 4+5 run per task in a dedicated goroutine: drain bootstrap
	// streams (§2 "Bootstrap Streams"), then the poll-process loop. The
	// supervisor cancels every sibling on the first failure or on a
	// coordinator shutdown and propagates the first real error.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for _, ti := range c.tasks {
		wg.Add(1)
		go func(ti *taskInstance) {
			defer wg.Done()
			ti.health.Store(taskHealthRunning)
			err := c.runTask(runCtx, ti)
			if err == nil {
				ti.health.Store(taskHealthStopped)
				return
			}
			if errors.Is(err, errStopRequested) {
				ti.health.Store(taskHealthStopped)
				cancel()
				return
			}
			ti.health.Store(taskHealthFailed)
			errOnce.Do(func() { firstErr = err })
			cancel()
		}(ti)
	}
	wg.Wait()
	repCancel()
	repWG.Wait()
	return firstErr
}

// runTask is one task's whole life inside a running container: bootstrap,
// then poll blocks until the context ends, an error occurs, or the task
// requests shutdown. On orderly exits the task writes a final checkpoint;
// after a processing error it does not, preserving the replay window for
// the restarted attempt.
func (c *Container) runTask(ctx context.Context, ti *taskInstance) error {
	defer ti.consumer.Close()
	if err := c.bootstrap(ctx, ti); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			return c.commitTask(ti)
		}
		stop, err := c.pollTask(ctx, ti)
		if err != nil {
			return err
		}
		if stop {
			if err := c.commitTask(ti); err != nil {
				return err
			}
			return errStopRequested
		}
	}
}

// bootstrap consumes each bootstrap stream partition from the consumer's
// current position to the high watermark observed at start, in blocks of
// the poll cap. Records appended while the bootstrap runs belong to the poll
// loop that follows.
func (c *Container) bootstrap(ctx context.Context, ti *taskInstance) error {
	for _, in := range c.job.Inputs {
		if !in.Bootstrap {
			continue
		}
		tp := kafka.TopicPartition{Topic: in.Topic, Partition: ti.partition}
		hwm, err := c.broker.HighWatermark(tp)
		if err != nil {
			return err
		}
		pos, _ := ti.consumer.Position(tp)
		// One record buffer for every read, each read handed to the task
		// as it is: a batch's keys and values are views into the log, which
		// the task's stores copy before the next.
		var msgs []kafka.Record
		for pos < hwm {
			if msgs, err = c.broker.Read(msgs[:0], tp, pos, ti.pollMax); err != nil {
				return fmt.Errorf("samza: %s bootstrap %s: %w", ti.name, tp, err)
			}
			if len(msgs) == 0 {
				break
			}
			// Cut the batch off at the watermark; a batch wholly past it
			// (everything below was compacted away meanwhile) ends the
			// bootstrap.
			n := 0
			for n < len(msgs) && msgs[n].Offset < hwm {
				n++
			}
			if n == 0 {
				pos = hwm
				break
			}
			if err := c.deliverBootstrap(ti, msgs[:n]); err != nil {
				return err
			}
			pos = msgs[n-1].Offset + 1
			if ctx.Err() != nil {
				return nil
			}
		}
		ti.consumer.Seek(tp, pos)
		ti.input(in.Topic).done.Store(pos)
	}
	return nil
}

// deliverBootstrap hands one fetched block of bootstrap records to the
// task in one ProcessBatch call: a SamzaSQL job loads its relations
// block-wise, like it processes its streams.
//
//samzasql:hotpath
func (c *Container) deliverBootstrap(ti *taskInstance, envs []IncomingMessageEnvelope) error {
	ti.coord.reset()
	if err := ti.task.ProcessBatch(envs, c.coll, &ti.coord, 0); err != nil {
		return fmt.Errorf("samza: %s bootstrap process batch: %w", ti.name, err)
	}
	return ti.changelogErr()
}

// idleWait bounds how long a task with no assignment sleeps between polls;
// assigned tasks block on the consumer's notifier instead.
const idleWait = 10 * time.Millisecond

// DefaultBatchSize is the per-poll message cap when JobSpec.BatchSize is
// unset: the largest block one ProcessBatch call receives. The cap binds
// only on a backlog (a drain, a restart's replay, a burst); a caught-up poll
// returns what has arrived.
// There, stateful operators load, fold and write each key's state once per
// block, so a larger block pays fewer state round trips per row, while each
// task's block scratch grows with it. 1024 is where the window's savings
// still outweigh what the larger working set costs the join (DESIGN.md,
// "Execution model").
const DefaultBatchSize = 1024

// pollTask delivers one block to the task. Returns stop=true when the task
// requested shutdown.
//
//samzasql:hotpath
func (c *Container) pollTask(ctx context.Context, ti *taskInstance) (bool, error) {
	msgs, err := ti.consumer.Poll(ctx, ti.pollMax)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return false, nil
		}
		return false, fmt.Errorf("samza: %s poll: %w", ti.name, err)
	}
	if len(msgs) == 0 {
		// No assignment: nothing will ever arrive; avoid a hot spin.
		select {
		case <-ctx.Done():
		case <-time.After(idleWait):
		}
		return false, nil
	}
	// TaskParallelism gates processing, not polling: a parked poll holds no
	// slot, so N slots bound the tasks concurrently burning CPU.
	if c.sem != nil {
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			return false, nil
		}
		defer func() { <-c.sem }()
	}
	// The whole polled block (one topic-partition, in offset order) goes to
	// the task as the consumer read it, in a single ProcessBatch call, with
	// one coordinator reset, one latency observation, and one
	// finished-offset update per block.
	ti.coord.reset()
	start := ti.procLat.Start()
	if err := ti.task.ProcessBatch(msgs, c.coll, &ti.coord, 0); err != nil {
		return false, fmt.Errorf("samza: %s process batch: %w", ti.name, err)
	}
	if err := ti.changelogErr(); err != nil {
		return false, err
	}
	ti.procLat.Stop(start)
	ti.input(msgs[0].Stream).done.Store(msgs[len(msgs)-1].Offset + 1)
	c.processed.Add(int64(len(msgs)))
	ti.processed += len(msgs)
	needCommit := ti.coord.commitRequested ||
		(c.job.CommitEvery > 0 && ti.processed >= c.job.CommitEvery)
	if needCommit {
		if err := c.commitTask(ti); err != nil {
			return false, err
		}
		ti.processed = 0
	}
	return ti.coord.shutdownRequested, nil
}

// commitTask writes the task's offset checkpoint. There is nothing to flush
// first: the changelog writes through, so every store write is on its topic
// before the offsets covering it are committed, and state on the changelog
// is always at or ahead of the committed offsets. A restart replays at most
// the uncommitted suffix onto state that already reflects it, and operators
// that keep input offsets in their state recognise those replayed messages
// (§4.3). A changelog that refused a write breaks that order, so the task
// fails instead of committing.
func (c *Container) commitTask(ti *taskInstance) error {
	if err := ti.changelogErr(); err != nil {
		return err
	}
	start := ti.commitLat.Start()
	cp := Checkpoint{Task: ti.name, Offsets: make(map[string]int64, len(ti.inputs))}
	for i := range ti.inputs {
		cp.Offsets[ti.inputs[i].tp.Topic] = ti.inputs[i].done.Load()
	}
	if err := c.cpm.Write(cp); err != nil {
		return fmt.Errorf("samza: %s checkpoint write: %w", ti.name, err)
	}
	c.commits.Inc()
	ti.commitLat.Stop(start)
	return nil
}
