package executor

import (
	"fmt"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/opt"
	"samzasql/internal/sql/parser"
	"samzasql/internal/sql/physical"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/validate"
	"samzasql/internal/trace"
	"samzasql/internal/zk"
)

// Task is the SamzaSQL stream task (§2, §4.2): a Samza BatchedStreamTask
// whose Init performs the second planning step — it loads the query text from
// Zookeeper, re-plans it, generates the operator router — and whose
// ProcessBatch routes each polled batch through the generated operators.
type Task struct {
	catalog  *catalog.Catalog
	zk       *zk.Store
	optimize bool

	program *physical.Program
	ctx     *samza.TaskContext
	// bound is the collector the program's sender currently targets. The
	// framework passes the same collector to every ProcessBatch call (it is
	// bound in TaskContext before Init), so after Init the per-batch path
	// never rebuilds the sender — and since each task owns its own Program,
	// routing stays goroutine-confined under task parallelism.
	bound samza.MessageCollector
	// one is Process's batch of one.
	one [1]samza.IncomingMessageEnvelope
}

// NewTask builds an uninitialized SamzaSQL task.
func NewTask(cat *catalog.Catalog, zkStore *zk.Store, optimize bool) *Task {
	return &Task{catalog: cat, zk: zkStore, optimize: optimize}
}

// Init implements samza.StreamTask: task-side query planning.
func (t *Task) Init(ctx *samza.TaskContext) error {
	t.ctx = ctx
	path, ok := ctx.Config["samzasql.zk.query.path"]
	if !ok {
		return fmt.Errorf("executor: task config missing samzasql.zk.query.path")
	}
	queryText, _, err := t.zk.Get(path)
	if err != nil {
		return fmt.Errorf("executor: loading query from zookeeper: %w", err)
	}
	stmt, err := parser.Parse(string(queryText))
	if err != nil {
		return err
	}
	res, err := validate.New(t.catalog).Validate(stmt)
	if err != nil {
		return err
	}
	logical, err := plan.Build(res)
	if err != nil {
		return err
	}
	if t.optimize {
		logical = opt.Optimize(logical)
	}
	prog, err := physical.Compile(logical, ctx.Config["samzasql.output.topic"])
	if err != nil {
		return err
	}
	t.program = prog
	if ctx.Collector != nil {
		t.bindSender(ctx.Collector)
	}
	return prog.Router.Open(&operators.OpContext{
		Store:     ctx.Store,
		Partition: ctx.Partition,
		Metrics:   ctx.Metrics,
		Trace:     ctx.Trace,
	})
}

// bindSender points the program's output sink at collector. Called once per
// task in the common case; ProcessBatch rebinds only if a caller hands it a
// different collector (direct drivers in tests do). The framework's
// collector flushes a block's output in one call; a plain MessageCollector
// gets it message by message.
func (t *Task) bindSender(collector samza.MessageCollector) {
	t.bound = collector
	if bc, ok := collector.(samza.BatchCollector); ok {
		t.program.SetBatchSender(bc.SendBatch)
		return
	}
	t.program.SetBatchSender(func(stream string, msgs []kafka.Message) error {
		for i := range msgs {
			m := &msgs[i]
			err := collector.Send(samza.OutgoingMessageEnvelope{
				Stream: stream, Partition: m.Partition, Key: m.Key, Value: m.Value, Timestamp: m.Timestamp,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// Process implements samza.StreamTask, which the framework requires of every
// task: one message is a batch of one. The container never calls it — it
// delivers to a BatchedStreamTask through ProcessBatch at every batch size.
func (t *Task) Process(env samza.IncomingMessageEnvelope, collector samza.MessageCollector, coord samza.Coordinator) error {
	t.one[0] = env
	return t.ProcessBatch(t.one[:], collector, coord, time.Now().UnixNano())
}

// ProcessBatch implements samza.BatchedStreamTask: the whole polled batch
// flows through its topic's block pipeline.
//
//samzasql:hotpath
func (t *Task) ProcessBatch(envs []samza.IncomingMessageEnvelope, collector samza.MessageCollector, _ samza.Coordinator, pollNs int64) error {
	if collector != t.bound {
		t.bindSender(collector)
	}
	var act *trace.Active
	if t.ctx != nil {
		act = t.ctx.Trace
	}
	return t.program.RouteBatch(envs, act, pollNs)
}
