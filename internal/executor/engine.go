// Package executor is SamzaSQL's query executor (§4.1, §4.2): it drives the
// two-step planning pipeline. Step one runs at the shell: parse → validate →
// logical plan → optimize → physical compile, deriving the Samza job
// configuration and publishing planner metadata (the query text, output
// topic and schema locations) to Zookeeper. Step two runs inside each
// SamzaSQL task at initialization: the task reads the metadata back from
// Zookeeper, re-plans, and generates its operator router.
package executor

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/sql/ast"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/opt"
	"samzasql/internal/sql/parser"
	"samzasql/internal/sql/physical"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/validate"
	"samzasql/internal/zk"
)

// Engine executes SamzaSQL statements against a broker and cluster.
type Engine struct {
	Catalog *catalog.Catalog
	Broker  *kafka.Broker
	Runner  *samza.JobRunner
	ZK      *zk.Store
	// Containers is the container count for submitted jobs (clamped to
	// the partition count by the job planner).
	Containers int
	// TaskParallelism bounds concurrent task execution per container
	// (samza.JobSpec.TaskParallelism): 0 lets every task run in parallel,
	// 1 reproduces the sequential container loop.
	TaskParallelism int
	// Optimize toggles the rule-based optimizer (on by default; the
	// ablation benches turn it off).
	Optimize bool
	// FastPath is ignored: every query runs the one block pipeline. It is
	// kept for callers that still read it, such as the repository benchmark.
	FastPath bool
	// MetricsInterval, when positive, enables the per-container metrics
	// snapshot reporter on submitted jobs (samza.JobSpec.MetricsInterval).
	MetricsInterval time.Duration
	// TraceSampleRate, when positive, enables end-to-end dataflow tracing
	// on submitted jobs: the broker samples roughly this fraction of
	// produced messages into span trees (samza.JobSpec.TraceSampleRate),
	// published on the "__traces" stream and visible via /debug/traces and
	// the shell's \trace. 0 keeps the hot path at a single branch.
	TraceSampleRate float64
	// TraceInterval overrides the per-container trace reporter period; 0
	// uses samza.DefaultTraceInterval whenever sampling is enabled.
	TraceInterval time.Duration
	// BatchSize sets the block size of submitted jobs
	// (samza.JobSpec.BatchSize): how many messages one poll drains into a
	// columnar block. 0 uses samza.DefaultBatchSize; 1 runs the operators
	// tuple at a time; negative values fail job validation.
	BatchSize int

	queryID atomic.Int64
	reparts repartitionJobs
}

// NewEngine wires an engine.
func NewEngine(cat *catalog.Catalog, broker *kafka.Broker, runner *samza.JobRunner, zkStore *zk.Store) *Engine {
	return &Engine{
		Catalog:    cat,
		Broker:     broker,
		Runner:     runner,
		ZK:         zkStore,
		Containers: 1,
		Optimize:   true,
	}
}

// Prepared is a fully planned statement.
type Prepared struct {
	Stmt      ast.Statement
	Bound     *validate.Result
	Logical   plan.Node
	Optimized plan.Node
	Program   *physical.Program
	// JobName identifies the Samza job for streaming execution.
	JobName string
	// OutputTopic receives the query result stream.
	OutputTopic string
	Warnings    []string
}

// Prepare runs step-one planning on a statement string.
func (e *Engine) Prepare(query string) (*Prepared, error) {
	stmt, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	v := validate.New(e.Catalog)
	res, err := v.Validate(stmt)
	if err != nil {
		return nil, err
	}
	logical, err := plan.Build(res)
	if err != nil {
		return nil, err
	}
	optimized := logical
	if e.Optimize {
		optimized = opt.Optimize(logical)
	}
	id := e.queryID.Add(1)
	jobName := fmt.Sprintf("samzasql-query-%d", id)
	output := res.InsertTarget
	if output == "" {
		output = fmt.Sprintf("%s-output", jobName)
	}
	prog, err := physical.Compile(optimized, output)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		Stmt:        stmt,
		Bound:       res,
		Logical:     logical,
		Optimized:   optimized,
		Program:     prog,
		JobName:     jobName,
		OutputTopic: output,
		Warnings:    res.Warnings,
	}, nil
}

// Explain returns the optimized plan rendering for a query.
func (e *Engine) Explain(query string) (string, error) {
	p, err := e.Prepare(query)
	if err != nil {
		return "", err
	}
	return plan.Format(p.Optimized), nil
}

// CreateView validates and registers a view in the catalog (§3.5).
func (e *Engine) CreateView(query string) (*Prepared, error) {
	p, err := e.Prepare(query)
	if err != nil {
		return nil, err
	}
	if p.Bound.View == nil {
		return nil, fmt.Errorf("executor: statement is not CREATE VIEW")
	}
	err = e.Catalog.Define(&catalog.Object{
		Kind: catalog.View,
		Name: p.Bound.View.Name,
		Row:  p.Bound.Root.Output,
		Def:  p.Bound.View.Select,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// zkQueryPath is where the shell publishes a job's query text (§4.2).
func zkQueryPath(jobName string) string {
	return "/samzasql/jobs/" + jobName + "/query"
}

// Submit launches a prepared streaming query and returns the running
// handle. It starts any repartition stages the plan needs (§7 future work
// 1), provisions the output topic (same partition count as the first
// input), publishes the query text to Zookeeper and generates the Samza job
// configuration referencing it.
func (e *Engine) Submit(ctx context.Context, p *Prepared) (*Job, error) {
	if !p.Program.Streaming {
		return nil, fmt.Errorf("executor: query is not streaming; use ExecuteBounded")
	}
	// Repartition stages run first: they create and feed the intermediate
	// topics the main job's scans read.
	var reparts []*samza.RunningJob
	for _, spec := range p.Program.Repartitions {
		rj, err := e.reparts.ensure(ctx, e, spec)
		if err != nil {
			for _, r := range reparts {
				r.Stop()
			}
			return nil, fmt.Errorf("executor: repartition stage: %w", err)
		}
		if rj != nil {
			reparts = append(reparts, rj)
		}
	}
	partitions, err := e.Broker.Partitions(p.Program.Inputs[0].Topic)
	if err != nil {
		return nil, err
	}
	if err := e.Broker.EnsureTopic(p.OutputTopic, kafka.TopicConfig{Partitions: partitions}); err != nil {
		return nil, err
	}
	// Publish planner metadata to Zookeeper; tasks re-plan from it.
	if err := e.ZK.CreateRecursive(zkQueryPath(p.JobName), []byte(p.Stmt.String())); err != nil {
		return nil, err
	}

	inputs := make([]samza.StreamSpec, len(p.Program.Inputs))
	for i, in := range p.Program.Inputs {
		inputs[i] = samza.StreamSpec{Topic: in.Topic, Bootstrap: in.Bootstrap}
	}
	job := e.jobSpec(p.JobName, inputs, func() samza.StreamTask {
		return NewTask(e.Catalog, e.ZK, e.Optimize)
	})
	job.Stores = p.Program.Stores
	job.Config = map[string]string{
		"samzasql.zk.query.path": zkQueryPath(p.JobName),
		"samzasql.output.topic":  p.OutputTopic,
	}
	// Tracing is a broker-level concern (contexts attach at produce time);
	// installing the sampler here keeps one knob for the whole pipeline,
	// repartition stages included.
	if e.TraceSampleRate > 0 {
		e.Broker.SetTraceSampling(e.TraceSampleRate)
	}
	main, err := e.Runner.Submit(ctx, job)
	if err != nil {
		for _, r := range reparts {
			r.Stop()
		}
		return nil, err
	}
	return &Job{Main: main, Repartitions: reparts}, nil
}

// jobSpec is the one source of the Engine-derived JobSpec fields —
// placement, block size, commit cadence and telemetry — shared by query
// jobs and their repartition stages so the two cannot drift apart.
func (e *Engine) jobSpec(name string, inputs []samza.StreamSpec, factory func() samza.StreamTask) *samza.JobSpec {
	return &samza.JobSpec{
		Name:            name,
		Inputs:          inputs,
		Containers:      e.Containers,
		TaskParallelism: e.TaskParallelism,
		BatchSize:       e.BatchSize,
		CommitEvery:     1000,
		MaxRestarts:     2,
		MetricsInterval: e.MetricsInterval,
		TraceSampleRate: e.TraceSampleRate,
		TraceInterval:   e.TraceInterval,
		TaskFactory:     factory,
	}
}

// ExecuteStream prepares and submits a streaming query in one call.
func (e *Engine) ExecuteStream(ctx context.Context, query string) (*Prepared, *Job, error) {
	p, err := e.Prepare(query)
	if err != nil {
		return nil, nil, err
	}
	rj, err := e.Submit(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	return p, rj, nil
}
