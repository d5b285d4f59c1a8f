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
	// once per task before Init and passes the same value to every Process
	// call, so tasks may capture it at Init and build per-task senders
	// instead of rebinding per message.
	Collector MessageCollector
	// Trace is the task's tracing cursor. Always non-nil; when the current
	// message is unsampled every method collapses to a bool check. Task
	// code touching it from a hot path must branch on Trace.Sampled()
	// first (enforced by the samzasql-vet trace-guard rule).
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
		Trace:     env.Trace,
	})
	if err == nil {
		c.sent.Inc()
	}
	return err
}

// SendBatch implements BatchCollector: one producer call appends a whole
// block's output messages, preserving order. The broker writes assigned
// offsets back into msgs and copies the key/value bytes into the log, so the
// caller may reuse both on return.
func (c *collector) SendBatch(stream string, msgs []kafka.Message) error {
	if err := c.broker.ProduceBatch(stream, msgs); err != nil {
		return err
	}
	c.sent.Add(int64(len(msgs)))
	return nil
}

// coordinatorState implements Coordinator. Each task loop reuses one
// instance across messages, resetting it per delivery, so the hot path
// performs no per-message allocation for coordinator plumbing.
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
	// batched is the task's whole-batch entry point, cached at build time:
	// non-nil when the task implements BatchedStreamTask.
	batched BatchedStreamTask
	// pollMax caps messages per poll (JobSpec.BatchSize resolved).
	pollMax int
	// envs is the reusable envelope arena the batched path delivers through.
	envs      []IncomingMessageEnvelope
	consumer  *kafka.Consumer
	ctx       *TaskContext
	changelog []*kv.ChangelogStore
	processed int // messages since last commit
	sinceWin  int // messages since last window fire
	// coord is the per-loop Coordinator handed to Process, reset per
	// message instead of allocated per message.
	coord coordinatorState
	// delivered holds, per input topic, the offset after the last message
	// the task finished processing. Checkpoints are written from here, not
	// from the consumer position: the consumer advances a whole fetched
	// batch at once, and committing its position mid-batch would skip
	// unprocessed messages after a crash.
	delivered map[string]int64
	// act is the task's tracing cursor (shared with ctx.Trace and the
	// store stack), owned by the task goroutine like everything else here.
	act *trace.Active
	// procLat, winLat and commitLat are pre-bound per-task latency timers
	// ("task.<name>.{process,window,commit}-ns"); hoisting them here keeps
	// the per-message path free of registry lookups and allocations.
	procLat   metrics.Timer
	winLat    metrics.Timer
	commitLat metrics.Timer
	// health is the supervisor-visible liveness state (taskHealth* consts),
	// read by Container.TaskHealth for the /healthz endpoint.
	health atomic.Int32
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
// container: restore state, bootstrap, then one poll-process-window-commit
// loop per task, each in a dedicated goroutine under an errgroup-style
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
	// sem, when non-nil, bounds how many tasks process batches at once
	// (JobSpec.TaskParallelism).
	sem chan struct{}
	// processed and commits are hoisted counters so the per-message path
	// never takes the registry lock.
	processed *metrics.Counter
	commits   *metrics.Counter
	// tracer collects completed spans from every task goroutine (lock-free
	// ring) plus lifecycle events; recent assembles drained spans into
	// whole traces for /debug/traces and the shell's \trace.
	tracer *trace.Recorder
	recent *trace.Recent
}

// traceRingSize bounds the per-container span ring: enough for the spans
// of a few hundred sampled messages between reporter drains; overflow
// drops spans (counted) rather than blocking a task goroutine.
const traceRingSize = 4096

// recentTraces bounds the assembled traces kept for /debug/traces.
const recentTraces = 32

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
		tracer:  trace.NewRecorder(traceRingSize),
		recent:  trace.NewRecent(recentTraces),
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
	act := trace.NewActive(c.tracer)
	stores := map[string]kv.Store{}
	var changelogs []*kv.ChangelogStore
	for _, spec := range c.job.Stores {
		// Store stack, bottom to top: skiplist base, optional changelog
		// mirroring, latency instrumentation. The changelog writes through:
		// every store write reaches the changelog before it returns, which
		// keeps state ahead of offsets for replay detection.
		s := kv.NewStore()
		if spec.Changelog {
			cl, err := kv.NewChangelogStore(s, c.broker, c.job.ChangelogTopic(spec.Name), inputPartitions, partition)
			if err != nil {
				return nil, err
			}
			changelogs = append(changelogs, cl)
			s = cl
		}
		s = kv.Instrument(s, c.Metrics, spec.Name)
		// The instrumented layer already times every op; binding the task's
		// cursor lets it double those timings as trace leaf spans when the
		// current message is sampled.
		kv.BindTrace(s, act)
		stores[spec.Name] = s
	}
	tctx := &TaskContext{
		Job:       c.job,
		Task:      name,
		Partition: partition,
		Metrics:   c.Metrics,
		Config:    c.job.Config,
		Collector: c.coll,
		Trace:     act,
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
		act:       act,
		delivered: map[string]int64{},
		procLat:   c.Metrics.Timer("task." + string(name) + ".process-ns"),
		winLat:    c.Metrics.Timer("task." + string(name) + ".window-ns"),
		commitLat: c.Metrics.Timer("task." + string(name) + ".commit-ns"),
	}
	ti.batched, _ = task.(BatchedStreamTask)
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

// UpdateLags refreshes every task consumer's per-partition lag gauges from
// the broker's high watermarks and returns the container-wide total.
func (c *Container) UpdateLags() int64 {
	var total int64
	for _, ti := range c.tasks {
		if lag, err := ti.consumer.UpdateLag(); err == nil {
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
		for _, in := range c.job.Inputs {
			tp := kafka.TopicPartition{Topic: in.Topic, Partition: ti.partition}
			if err := ti.consumer.Assign(tp); err != nil {
				return fmt.Errorf("samza: %s assign %s: %w", ti.name, tp, err)
			}
			ti.consumer.BindLagGauge(tp, c.Metrics.Gauge(fmt.Sprintf("kafka.lag.%s.%d", in.Topic, ti.partition)))
			if found {
				if off, ok := cp.Offsets[in.Topic]; ok {
					ti.consumer.Seek(tp, off)
				}
			}
			if pos, ok := ti.consumer.Position(tp); ok {
				ti.delivered[in.Topic] = pos
			}
		}
	}
	// Phase 3: initialize tasks (after state restore, per the API contract).
	for _, ti := range c.tasks {
		if err := ti.task.Init(ti.ctx); err != nil {
			return fmt.Errorf("samza: %s init: %w", ti.name, err)
		}
	}
	// Start the per-container reporters (when configured) before the task
	// loops, on their own context: they must outlive the tasks so the final
	// flushes after wg.Wait() capture complete end-of-run metrics and the
	// spans of the last sampled messages.
	var (
		repWG     sync.WaitGroup
		repCancel context.CancelFunc
		repCtx    context.Context
	)
	startReporter := func(run func(context.Context)) {
		if repCancel == nil {
			repCtx, repCancel = context.WithCancel(context.Background())
		}
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			run(repCtx)
		}()
	}
	if c.job.MetricsInterval > 0 {
		topic := c.job.MetricsTopicName()
		if err := c.broker.EnsureTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
			return fmt.Errorf("samza: metrics topic: %w", err)
		}
		// The runtime/metrics collector rides the snapshot reporter's
		// refresh hook: goroutine count, live heap, GC pauses and scheduler
		// latencies land in the ordinary registry once per publish, so they
		// travel __metrics with no extra plumbing and zero hot-path cost.
		rtc := profile.NewCollector(c.Metrics)
		rep := NewMetricsSnapshotReporter(c.broker, c.job.Name, c.ID, topic,
			c.job.MetricsInterval, c.Metrics, func() {
				c.UpdateLags()
				rtc.Refresh()
			})
		startReporter(rep.Run)
	}
	if c.job.ProfileInterval > 0 {
		topic := c.job.ProfilesTopicName()
		if err := c.broker.EnsureTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
			return fmt.Errorf("samza: profiles topic: %w", err)
		}
		prof := profile.New(profile.Config{
			Interval: c.job.ProfileInterval,
			Window:   c.job.ProfileWindow,
		}, true)
		rep := NewProfileReporter(c.broker, c.job.Name, c.ID, topic, prof)
		startReporter(rep.Run)
	}
	if interval := c.traceInterval(); interval > 0 {
		topic := c.job.TraceTopicName()
		if err := c.broker.EnsureTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
			return fmt.Errorf("samza: trace topic: %w", err)
		}
		rep := NewTraceReporter(c.broker, c.job.Name, c.ID, topic, interval, c.SyncTraces)
		startReporter(rep.Run)
	}
	// Lifecycle events land in the same recorder as spans and publish on
	// the trace stream, so trace anomalies correlate with runtime events.
	now := time.Now().UnixNano()
	c.tracer.Event(now, "container-start", fmt.Sprintf("%s container %d", c.job.Name, c.ID))
	for _, ti := range c.tasks {
		c.tracer.Event(now, "task-assigned", string(ti.name))
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
	c.tracer.Event(time.Now().UnixNano(), "container-stop", fmt.Sprintf("%s container %d", c.job.Name, c.ID))
	if repCancel != nil {
		repCancel()
		repWG.Wait()
	}
	return firstErr
}

// traceInterval resolves the trace reporter period: the job's explicit
// setting, or the default whenever sampling is enabled without one.
func (c *Container) traceInterval() time.Duration {
	if c.job.TraceInterval > 0 {
		return c.job.TraceInterval
	}
	if c.job.TraceSampleRate > 0 {
		return DefaultTraceInterval
	}
	return 0
}

// SyncTraces drains the span ring into the container's recent-trace store
// and returns the drained batch (spans, lifecycle events, drop count).
// Called by the trace reporter each tick and by the introspection path on
// demand; safe for concurrent use.
func (c *Container) SyncTraces() ([]trace.Span, []trace.Event, int64) {
	spans := c.tracer.Drain(nil)
	c.recent.Add(spans)
	return spans, c.tracer.DrainEvents(nil), c.tracer.TakeDropped()
}

// RecentTraces returns the most recently completed traces this container
// observed, newest first.
func (c *Container) RecentTraces() []*trace.TraceData {
	c.SyncTraces()
	return c.recent.Traces()
}

// runTask is one task's whole life inside a running container: bootstrap,
// then poll batches until the context ends, an error occurs, or the task
// requests shutdown. On orderly exits the task writes a final checkpoint and
// closes; after a processing error it does not, preserving the replay
// window for the restarted attempt.
func (c *Container) runTask(ctx context.Context, ti *taskInstance) error {
	defer ti.consumer.Close()
	if err := c.bootstrap(ctx, ti); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			return c.finishTask(ti)
		}
		stop, err := c.pollTask(ctx, ti)
		if err != nil {
			return err
		}
		if stop {
			if err := c.finishTask(ti); err != nil {
				return err
			}
			return errStopRequested
		}
	}
}

// bootstrapFetch caps one bootstrap fetch on the per-message path; batched
// tasks fetch a block (pollMax) at a time instead.
const bootstrapFetch = 512

// bootstrap consumes each bootstrap stream partition from the consumer's
// current position to the high watermark observed at start. Records appended
// while the bootstrap runs belong to the poll loop that follows.
func (c *Container) bootstrap(ctx context.Context, ti *taskInstance) error {
	fetchMax := bootstrapFetch
	if ti.batched != nil {
		fetchMax = ti.pollMax
	}
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
		for pos < hwm {
			msgs, wait, err := c.broker.Fetch(tp, pos, fetchMax)
			if err != nil {
				return fmt.Errorf("samza: %s bootstrap %s: %w", ti.name, tp, err)
			}
			if wait != nil {
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
		ti.delivered[in.Topic] = pos
	}
	return nil
}

// deliverBootstrap hands one fetched run of bootstrap messages to the task:
// as a single ProcessBatch call when the task is batched — a SamzaSQL job
// loads its relations block-wise, like it processes its streams — and one
// Process call per message otherwise.
//
//samzasql:hotpath
func (c *Container) deliverBootstrap(ti *taskInstance, msgs []kafka.Message) error {
	if ti.batched != nil {
		envs := ti.envs[:0]
		for i := range msgs {
			envs = append(envs, bootstrapEnvelope(&msgs[i]))
		}
		ti.envs = envs
		ti.coord.reset()
		if err := ti.batched.ProcessBatch(envs, c.coll, &ti.coord, time.Now().UnixNano()); err != nil {
			return fmt.Errorf("samza: %s bootstrap process batch: %w", ti.name, err)
		}
		return nil
	}
	for i := range msgs {
		ti.coord.reset()
		//samzasql:ignore hotpath-blocking -- devirtualization resolves StreamTask to every impl including the bench throttle task, whose Sleep is intended backpressure in benchmarks only
		if err := ti.task.Process(bootstrapEnvelope(&msgs[i]), c.coll, &ti.coord); err != nil {
			return fmt.Errorf("samza: %s bootstrap process: %w", ti.name, err)
		}
	}
	return nil
}

// bootstrapEnvelope wraps a bootstrap message for delivery. Trace contexts
// are not carried over: bootstrap deliveries are not traced.
func bootstrapEnvelope(m *kafka.Message) IncomingMessageEnvelope {
	return IncomingMessageEnvelope{
		Stream: m.Topic, Partition: m.Partition, Offset: m.Offset,
		Key: m.Key, Value: m.Value, Timestamp: m.Timestamp,
	}
}

// idleWait bounds how long a task with no assignment sleeps between polls;
// assigned tasks block on the consumer's notifier instead.
const idleWait = 10 * time.Millisecond

// DefaultBatchSize is the per-poll message cap when JobSpec.BatchSize is
// unset: the block a BatchedStreamTask receives and the fetch granularity of
// per-message delivery alike.
const DefaultBatchSize = 256

// pollTask delivers one batch to the task. Returns stop=true when the task
// requested shutdown.
//
//samzasql:hotpath
func (c *Container) pollTask(ctx context.Context, ti *taskInstance) (bool, error) {
	//samzasql:ignore hotpath-blocking -- the blocking poll is the idle wait itself; it wakes on new input or shutdown, never while messages are queued
	msgs, err := ti.consumer.Poll(ctx, ti.pollMax)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return false, nil
		}
		return false, fmt.Errorf("samza: %s poll: %w", ti.name, err)
	}
	if len(msgs) == 0 {
		// No assignment: nothing will ever arrive; avoid a hot spin.
		//samzasql:ignore hotpath-blocking -- the blocking poll is the idle wait itself; it wakes on new input or shutdown, never while messages are queued
		select {
		case <-ctx.Done():
		case <-time.After(idleWait):
		}
		return false, nil
	}
	// TaskParallelism gates processing, not polling: a parked poll holds no
	// slot, so N slots bound the tasks concurrently burning CPU.
	if c.sem != nil {
		//samzasql:ignore hotpath-blocking -- the blocking poll is the idle wait itself; it wakes on new input or shutdown, never while messages are queued
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			return false, nil
		}
		//samzasql:ignore hotpath-blocking -- the blocking poll is the idle wait itself; it wakes on new input or shutdown, never while messages are queued
		defer func() { <-c.sem }()
	}
	// batchNs anchors the poll span of any sampled message in this batch:
	// one time read per batch is the only unconditional tracing cost.
	batchNs := time.Now().UnixNano()
	// Vectorized delivery: the whole polled batch (one topic-partition, in
	// offset order) goes to the task in a single ProcessBatch call, with
	// one coordinator reset, one latency observation, and one
	// delivered-offset update per batch instead of per message. Trace
	// bookkeeping for sampled messages inside the batch is the task's to
	// replay (batch-level spans with row counts).
	if ti.batched != nil {
		envs := ti.envs[:0]
		for i := range msgs {
			m := &msgs[i]
			envs = append(envs, IncomingMessageEnvelope{
				Stream: m.Topic, Partition: m.Partition, Offset: m.Offset,
				Key: m.Key, Value: m.Value, Timestamp: m.Timestamp,
				Trace: m.Trace,
			})
		}
		ti.envs = envs
		ti.coord.reset()
		start := ti.procLat.Start()
		if err := ti.batched.ProcessBatch(envs, c.coll, &ti.coord, batchNs); err != nil {
			return false, fmt.Errorf("samza: %s process batch: %w", ti.name, err)
		}
		ti.procLat.Stop(start)
		ti.delivered[msgs[0].Topic] = msgs[len(msgs)-1].Offset + 1
		c.processed.Add(int64(len(msgs)))
		ti.processed += len(msgs)
		ti.sinceWin += len(msgs)
		if wt, ok := ti.task.(WindowableTask); ok && c.job.WindowEvery > 0 && ti.sinceWin >= c.job.WindowEvery {
			wstart := ti.winLat.Start()
			if err := wt.Window(c.coll, &ti.coord); err != nil {
				return false, fmt.Errorf("samza: %s window: %w", ti.name, err)
			}
			ti.winLat.Stop(wstart)
			ti.sinceWin = 0
		}
		needCommit := ti.coord.commitRequested ||
			(c.job.CommitEvery > 0 && ti.processed >= c.job.CommitEvery)
		if needCommit {
			//samzasql:ignore hotpath-blocking -- commit-interval work amortized across the whole batch, not a per-message cost
			if err := c.commitTask(ti); err != nil {
				return false, err
			}
			ti.processed = 0
		}
		return ti.coord.shutdownRequested, nil
	}
	// env and ti.coord are reused across the batch; Process receives the
	// envelope by value, so reuse is invisible to the task.
	env := IncomingMessageEnvelope{}
	for i := range msgs {
		m := &msgs[i]
		env = IncomingMessageEnvelope{
			Stream: m.Topic, Partition: m.Partition, Offset: m.Offset,
			Key: m.Key, Value: m.Value, Timestamp: m.Timestamp,
			Trace: m.Trace,
		}
		ti.coord.reset()
		if m.Trace.Sampled {
			ti.act.StartMessage(m.Trace, batchNs, time.Now().UnixNano())
		}
		start := ti.procLat.Start()
		//samzasql:ignore hotpath-blocking -- devirtualization resolves StreamTask to every impl including the bench throttle task, whose Sleep is intended backpressure in benchmarks only
		if err := ti.task.Process(env, c.coll, &ti.coord); err != nil {
			return false, fmt.Errorf("samza: %s process: %w", ti.name, err)
		}
		ti.procLat.Stop(start)
		if m.Trace.Sampled {
			ti.act.FinishMessage(time.Now().UnixNano())
		}
		ti.delivered[env.Stream] = env.Offset + 1
		c.processed.Inc()
		ti.processed++
		ti.sinceWin++

		if wt, ok := ti.task.(WindowableTask); ok && c.job.WindowEvery > 0 && ti.sinceWin >= c.job.WindowEvery {
			wstart := ti.winLat.Start()
			if err := wt.Window(c.coll, &ti.coord); err != nil {
				return false, fmt.Errorf("samza: %s window: %w", ti.name, err)
			}
			ti.winLat.Stop(wstart)
			ti.sinceWin = 0
		}
		needCommit := ti.coord.commitRequested ||
			(c.job.CommitEvery > 0 && ti.processed >= c.job.CommitEvery)
		if needCommit {
			//samzasql:ignore hotpath-blocking -- commit-interval work amortized across the whole batch, not a per-message cost
			if err := c.commitTask(ti); err != nil {
				return false, err
			}
			ti.processed = 0
		}
		if ti.coord.shutdownRequested {
			return true, nil
		}
	}
	return false, nil
}

// commitTask writes the task's offset checkpoint. There is nothing to flush
// first: the changelog writes through, so every store write is on its topic
// before the offsets covering it are committed, and state on the changelog
// is always at or ahead of the committed offsets. A restart replays at most
// the uncommitted suffix onto state that already reflects it, and operators
// that keep input offsets in their state recognise those replayed messages
// (§4.3).
func (c *Container) commitTask(ti *taskInstance) error {
	// A trace pending since the last sampled message closes here, with the
	// commit span as its last stage.
	if ti.act.PendingCommit() {
		ti.act.StartCommit(time.Now().UnixNano())
	}
	start := ti.commitLat.Start()
	cp := Checkpoint{Task: ti.name, Offsets: map[string]int64{}}
	for topic, off := range ti.delivered {
		cp.Offsets[topic] = off
	}
	if err := c.cpm.Write(cp); err != nil {
		return fmt.Errorf("samza: %s checkpoint write: %w", ti.name, err)
	}
	c.commits.Inc()
	ti.commitLat.Stop(start)
	c.tracer.Event(time.Now().UnixNano(), "checkpoint-commit", string(ti.name))
	if ti.act.Sampled() {
		ti.act.FinishCommit(time.Now().UnixNano())
	}
	return nil
}

// finishTask commits the task's final checkpoint and closes it.
func (c *Container) finishTask(ti *taskInstance) error {
	err := c.commitTask(ti)
	if ct, ok := ti.task.(ClosableTask); ok {
		if cerr := ct.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
