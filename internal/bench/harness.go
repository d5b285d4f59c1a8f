package bench

import (
	"context"
	"fmt"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/workload"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"

	"samzasql/internal/executor"
)

// Config parameterizes one benchmark run, mirroring §5.1: 100-byte
// messages, 32-partition topics, partitions uniformly spread over tasks.
type Config struct {
	// Partitions per topic (paper: 32).
	Partitions int32
	// Messages is the Orders stream length per run.
	Messages int
	// Products is the relation cardinality.
	Products int
	// Containers for the Samza job.
	Containers int
	// TaskParallelism bounds concurrent task execution inside each
	// container: 0 runs every task in parallel, 1 reproduces the
	// sequential container loop. Sweeping it at fixed containers measures
	// tasks-per-core scaling.
	TaskParallelism int
	// WindowMillis for the sliding-window benchmarks (paper: 5 minutes).
	WindowMillis int64
	// MetricsInterval, when positive, enables each benchmark job's
	// per-container metrics snapshot reporter (snapshots land on the
	// __metrics stream of the run's private broker).
	MetricsInterval time.Duration
	// MetricsAddr, when non-empty, serves the runner's introspection
	// endpoints (/metrics, /healthz, /debug/pprof/) on this address for the
	// duration of each run — the hook `make profile` uses to capture CPU
	// profiles of a live benchmark.
	MetricsAddr string
	// Monitor, when true, attaches a cluster monitor to each run's broker
	// (tailing __metrics, evaluating the default SLO rules onto
	// __alerts) and records the run's lag-recovery series in
	// Result.Monitor. Forces a 10ms MetricsInterval when none is set —
	// the monitor sees nothing without snapshots.
	Monitor bool
	// BatchSize sets the SamzaSQL side's block size
	// (samza.JobSpec.BatchSize): 0 uses samza.DefaultBatchSize, 1 runs
	// tuple at a time. Native jobs keep samza.DefaultBatchSize blocks, so
	// the baseline is unaffected.
	BatchSize int
}

// DefaultConfig returns the paper's setup scaled for in-process runs.
func DefaultConfig() Config {
	return Config{
		Partitions:   32,
		Messages:     100_000,
		Products:     100,
		Containers:   1,
		WindowMillis: 5 * 60 * 1000,
	}
}

// Result is one measured job run.
type Result struct {
	Impl       string // "native" or "samzasql"
	Query      string // "filter", "project", "join", "window"
	Containers int
	Messages   int64
	Elapsed    time.Duration
	// Throughput is job throughput in messages/second (the per-container
	// average times the container count, as the paper computes it).
	Throughput float64
	// Snapshot is the job's merged end-of-run metrics (operator latency
	// histograms, serde byte counters, consumer-lag gauges).
	Snapshot metrics.Snapshot
	// Monitor is the run's lag-recovery record, set when Config.Monitor
	// attached a cluster monitor.
	Monitor *MonitorSummary
}

// env is one fresh in-process cluster.
type env struct {
	broker  *kafka.Broker
	cluster *yarn.Cluster
	runner  *samza.JobRunner
	catalog *catalog.Catalog
	engine  *executor.Engine
}

func newEnv(cfg Config) (*env, error) {
	broker := kafka.NewBroker()
	cluster := yarn.NewCluster()
	// Nodes sized so any container count in the sweep fits (3x r3.2xlarge
	// in the paper; capacity is not the bottleneck in-process).
	for i := 0; i < 3; i++ {
		cluster.AddNode(fmt.Sprintf("node-%d", i), yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	}
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		return nil, err
	}
	runner := samza.NewJobRunner(broker, cluster)
	eng := executor.NewEngine(cat, broker, runner, zk.NewStore())
	return &env{broker: broker, cluster: cluster, runner: runner, catalog: cat, engine: eng}, nil
}

// loadOrders pre-produces the Orders stream (excluded from timing).
func (e *env) loadOrders(cfg Config) error {
	ocfg := workload.DefaultOrdersConfig()
	ocfg.Products = cfg.Products
	_, err := workload.ProduceOrders(e.broker, "orders", cfg.Partitions, cfg.Messages, ocfg)
	return err
}

func (e *env) loadProducts(cfg Config) error {
	return workload.ProduceProducts(e.broker, "products", cfg.Partitions, cfg.Products)
}

// metricsSource is anything exposing merged job metrics (a Samza job, or a
// SamzaSQL job handle with repartition stages).
type metricsSource interface {
	MetricsSnapshot() metrics.Snapshot
}

// awaitProcessed polls the job's processed-message counter until it reaches
// want, returning the elapsed time since start.
func awaitProcessed(rj metricsSource, want int64, start time.Time, timeout time.Duration) (time.Duration, error) {
	deadline := start.Add(timeout)
	for {
		snap := rj.MetricsSnapshot()
		if snap.Counters["messages-processed"] >= want {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: job processed %d of %d messages before timeout",
				snap.Counters["messages-processed"], want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// benchTimeout bounds a single measured run.
const benchTimeout = 10 * time.Minute

// RunNative measures one hand-written task implementation.
func RunNative(query string, cfg Config) (Result, error) {
	if cfg.Monitor && cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 10 * time.Millisecond
	}
	e, err := newEnv(cfg)
	if err != nil {
		return Result{}, err
	}
	mon, stopMon, err := e.startMonitor(cfg, nil)
	if err != nil {
		return Result{}, err
	}
	defer stopMon()
	stopIntrospection, err := e.serveIntrospection(cfg)
	if err != nil {
		return Result{}, err
	}
	defer stopIntrospection()
	if err := e.loadOrders(cfg); err != nil {
		return Result{}, err
	}
	outTopic := "bench-out"
	if err := e.broker.EnsureTopic(outTopic, kafka.TopicConfig{Partitions: cfg.Partitions}); err != nil {
		return Result{}, err
	}

	job := &samza.JobSpec{
		Name:            "native-" + query,
		Inputs:          []samza.StreamSpec{{Topic: "orders"}},
		Containers:      cfg.Containers,
		TaskParallelism: cfg.TaskParallelism,
		CommitEvery:     100_000,
		MetricsInterval: cfg.MetricsInterval,
		Config:          map[string]string{},
	}
	switch query {
	case "filter":
		job.TaskFactory = func() samza.StreamTask { return &NativeFilterTask{Output: outTopic} }
	case "project":
		job.TaskFactory = func() samza.StreamTask { return &NativeProjectTask{Output: outTopic} }
	case "join":
		if err := e.loadProducts(cfg); err != nil {
			return Result{}, err
		}
		job.Inputs = append(job.Inputs, samza.StreamSpec{Topic: "products", Bootstrap: true})
		// No changelog: a restart re-reads the bootstrap input from its
		// start, as the SQL join's relation table does.
		job.Stores = []samza.StoreSpec{{Name: JoinStoreName}}
		job.TaskFactory = func() samza.StreamTask {
			return &NativeJoinTask{Output: outTopic, OrdersTopic: "orders", ProductsTopic: "products"}
		}
	case "window":
		job.Stores = []samza.StoreSpec{{Name: WindowStoreName, Changelog: true}}
		job.TaskFactory = func() samza.StreamTask {
			return &NativeSlidingWindowTask{Output: outTopic, WindowMillis: cfg.WindowMillis}
		}
	default:
		return Result{}, fmt.Errorf("bench: unknown native query %q", query)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	rj, err := e.runner.Submit(ctx, job)
	if err != nil {
		return Result{}, err
	}
	elapsed, err := awaitProcessed(rj, int64(cfg.Messages), start, benchTimeout)
	var summary *MonitorSummary
	if err == nil && mon != nil {
		summary = awaitMonitorSummary(mon, job.Name, time.Second)
	}
	rj.Stop()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Impl:       "native",
		Query:      query,
		Containers: cfg.Containers,
		Messages:   int64(cfg.Messages),
		Elapsed:    elapsed,
		Throughput: float64(cfg.Messages) / elapsed.Seconds(),
		Snapshot:   rj.MetricsSnapshot(),
		Monitor:    summary,
	}, nil
}

// serveIntrospection starts the env's introspection server when the config
// asks for one, returning a stop function (a no-op when disabled).
func (e *env) serveIntrospection(cfg Config) (func(), error) {
	if cfg.MetricsAddr == "" {
		return func() {}, nil
	}
	addr, shutdown, err := e.runner.ServeIntrospection(cfg.MetricsAddr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("bench: introspection on http://%s\n", addr)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = shutdown(ctx)
	}, nil
}

// Queries are the §5.1 benchmark statements.
var Queries = map[string]string{
	"filter":  "SELECT STREAM * FROM Orders WHERE units > 50",
	"project": "SELECT STREAM rowtime, productId, units FROM Orders",
	"window": `SELECT STREAM rowtime, productId, units,
  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
    RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes
FROM Orders`,
	"join": `SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId,
  Orders.units, Products.supplierId
FROM Orders JOIN Products ON Orders.productId = Products.productId`,
}

// RunSQL measures the SamzaSQL implementation of one benchmark query.
func RunSQL(query string, cfg Config) (Result, error) {
	sql, ok := Queries[query]
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown SQL query %q", query)
	}
	if cfg.Monitor && cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 10 * time.Millisecond
	}
	e, err := newEnv(cfg)
	if err != nil {
		return Result{}, err
	}
	mon, stopMon, err := e.startMonitor(cfg, nil)
	if err != nil {
		return Result{}, err
	}
	defer stopMon()
	stopIntrospection, err := e.serveIntrospection(cfg)
	if err != nil {
		return Result{}, err
	}
	defer stopIntrospection()
	if err := e.loadOrders(cfg); err != nil {
		return Result{}, err
	}
	if query == "join" {
		if err := e.loadProducts(cfg); err != nil {
			return Result{}, err
		}
	}
	e.engine.Containers = cfg.Containers
	e.engine.TaskParallelism = cfg.TaskParallelism
	e.engine.MetricsInterval = cfg.MetricsInterval
	e.engine.BatchSize = cfg.BatchSize

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	p, rj, err := e.engine.ExecuteStream(ctx, sql)
	if err != nil {
		return Result{}, err
	}
	elapsed, err := awaitProcessed(rj, int64(cfg.Messages), start, benchTimeout)
	var summary *MonitorSummary
	if err == nil && mon != nil {
		summary = awaitMonitorSummary(mon, p.JobName, time.Second)
	}
	rj.Stop()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Impl:       "samzasql",
		Query:      query,
		Containers: cfg.Containers,
		Messages:   int64(cfg.Messages),
		Elapsed:    elapsed,
		Throughput: float64(cfg.Messages) / elapsed.Seconds(),
		Snapshot:   rj.MetricsSnapshot(),
		Monitor:    summary,
	}, nil
}
