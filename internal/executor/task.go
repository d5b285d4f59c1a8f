package executor

import (
	"fmt"

	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/opt"
	"samzasql/internal/sql/parser"
	"samzasql/internal/sql/physical"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/validate"
	"samzasql/internal/zk"
)

// Task is the SamzaSQL stream task (§2, §4.2): a Samza StreamTask whose
// Init performs the second planning step — it loads the query text from
// Zookeeper, re-plans it, generates the operator router — and whose
// ProcessBatch routes each polled batch through the generated operators.
type Task struct {
	catalog  *catalog.Catalog
	zk       *zk.Store
	optimize bool

	program *physical.Program
	// bound is the collector the program's sender currently targets. The
	// framework passes the same collector to every ProcessBatch call (it is
	// bound in TaskContext before Init), so after Init the per-batch path
	// never rebuilds the sender — and since each task owns its own Program,
	// routing stays goroutine-confined under task parallelism.
	bound samza.MessageCollector
}

// NewTask builds an uninitialized SamzaSQL task.
func NewTask(cat *catalog.Catalog, zkStore *zk.Store, optimize bool) *Task {
	return &Task{catalog: cat, zk: zkStore, optimize: optimize}
}

// Init implements samza.StreamTask: task-side query planning.
func (t *Task) Init(ctx *samza.TaskContext) error {
	path, ok := ctx.Config["samzasql.zk.query.path"]
	if !ok {
		return fmt.Errorf("executor: task config missing samzasql.zk.query.path")
	}
	queryText, err := t.zk.Get(path)
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
	})
}

// bindSender points the program's output sink at collector, which flushes
// a block's output in one call. Called once per task in the common case;
// ProcessBatch rebinds only if a caller hands it a different collector
// (direct drivers in tests do).
func (t *Task) bindSender(collector samza.MessageCollector) {
	t.bound = collector
	t.program.SetBatchSender(collector.SendBatch)
}

// ProcessBatch implements samza.StreamTask: the whole polled block flows
// through its topic's block pipeline.
//
//samzasql:hotpath
func (t *Task) ProcessBatch(envs []samza.IncomingMessageEnvelope, collector samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	if collector != t.bound {
		t.bindSender(collector)
	}
	return t.program.RouteBatch(envs)
}
