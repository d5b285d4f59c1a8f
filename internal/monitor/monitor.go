package monitor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
)

// MonitorJob is the pseudo-job name the monitor files its own metrics
// under in the store (container -1), so the observability pipeline is
// queryable through its own /query endpoint.
const MonitorJob = "__monitor"

// DefaultEvalInterval is the rule-evaluation period when the config does
// not choose one.
const DefaultEvalInterval = 100 * time.Millisecond

// HealthSource reports per-task liveness, shaped like the /healthz payload:
// job name -> task name -> state ("init", "running", "stopped", "failed").
// JobRunner-backed monitors pass a closure over RunningJob.TaskHealth.
type HealthSource func() map[string]map[string]string

// Config configures a Monitor.
type Config struct {
	// Broker is the broker whose telemetry streams the monitor tails and
	// whose alerts topic it publishes to. Required.
	Broker *kafka.Broker
	// Health, when set, feeds the task-flap rule. Polled every eval tick.
	Health HealthSource
	// Rules is the SLO rule set; nil means DefaultRules().
	Rules []Rule
	// EvalInterval is the rule-evaluation period; 0 means
	// DefaultEvalInterval.
	EvalInterval time.Duration
	// Capacity is the per-series ring size; 0 means DefaultCapacity.
	Capacity int
}

// Monitor tails the metrics stream into the store and evaluates the rule
// set. Create with Start, release with Stop.
type Monitor struct {
	cfg    Config
	store  *Store
	am     *alertManager
	tailer *samza.Tailer[samza.MetricsSnapshotMessage]

	// Monitor self-metrics, pre-bound (never looked up on the ingest path).
	reg             *metrics.Registry
	snapshotsIn     *metrics.Counter
	alertsPublished *metrics.Counter
	decodeErrors    *metrics.Counter
	publishErrors   *metrics.Counter

	// Health-flap log, written by the run loop only.
	prevHealth map[flapKey]string
	flapLog    []flapEvent

	metricsCh chan []*samza.MetricsSnapshotMessage

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// flapKey identifies one task for liveness tracking.
type flapKey struct{ job, task string }

// flapEvent is one observed liveness transition.
type flapEvent struct {
	key        flapKey
	timeMillis int64
}

// flapLogCap bounds the retained liveness-transition log.
const flapLogCap = 1024

// Start builds the monitor, ensures its topics exist, and launches the
// poller and run-loop goroutines. The returned monitor is live until Stop.
func Start(cfg Config) (*Monitor, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("monitor: config needs a broker")
	}
	if cfg.Rules == nil {
		cfg.Rules = DefaultRules()
	}
	if cfg.EvalInterval <= 0 {
		cfg.EvalInterval = DefaultEvalInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if err := cfg.Broker.EnsureTopic(DefaultAlertsTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		return nil, fmt.Errorf("monitor: ensure topic %s: %w", DefaultAlertsTopic, err)
	}
	reg := metrics.NewRegistry()
	m := &Monitor{
		cfg:             cfg,
		store:           NewStore(cfg.Capacity),
		am:              newAlertManager(),
		reg:             reg,
		snapshotsIn:     reg.Counter("monitor.snapshots-ingested"),
		alertsPublished: reg.Counter("monitor.alerts-published"),
		decodeErrors:    reg.Counter("monitor.decode-errors"),
		publishErrors:   reg.Counter("monitor.publish-errors"),
		prevHealth:      map[flapKey]string{},
		metricsCh:       make(chan []*samza.MetricsSnapshotMessage, 16),
	}
	t, err := samza.NewTailer[samza.MetricsSnapshotMessage](cfg.Broker, samza.DefaultMetricsTopic)
	if err != nil {
		return nil, err
	}
	t.BindLag(reg)
	m.tailer = t

	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	for _, run := range []func(context.Context){m.poll, m.run} {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			run(ctx)
		}()
	}
	return m, nil
}

// Stop cancels the goroutines, waits for them, and releases the tailers.
func (m *Monitor) Stop() {
	m.cancel()
	m.wg.Wait()
	m.tailer.Close()
}

// poll forwards each poll of the metrics stream's decoded snapshots to the
// run loop until ctx ends. A record that does not decode counts once in
// monitor.decode-errors and the rest of its poll is still delivered. The
// tailer's own lag gauge lands in the monitor registry, which the run loop
// files into the store each tick — the pipeline observes itself falling
// behind.
func (m *Monitor) poll(ctx context.Context) {
	for {
		batch, err := m.tailer.Poll(ctx, 256)
		if ctx.Err() != nil {
			return
		}
		var bad *samza.DecodeError
		if errors.As(err, &bad) {
			m.decodeErrors.Add(int64(bad.Skipped))
		} else if err != nil {
			m.decodeErrors.Inc()
		}
		if len(batch) == 0 {
			continue
		}
		select {
		case m.metricsCh <- batch:
		case <-ctx.Done():
			return
		}
	}
}

// Store exposes the time-series store for queries.
func (m *Monitor) Store() *Store { return m.store }

// ActiveAlerts returns the currently-firing alerts.
func (m *Monitor) ActiveAlerts() []ActiveAlert { return m.am.Active() }

// RecentAlerts returns up to max recent alert transitions, newest last.
func (m *Monitor) RecentAlerts(max int) []AlertMessage { return m.am.Recent(max) }

// run is the single writer: it ingests batches from the poller and
// evaluates the rule set every EvalInterval.
func (m *Monitor) run(ctx context.Context) {
	tick := time.NewTicker(m.cfg.EvalInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case batch := <-m.metricsCh:
			m.ingestMetrics(batch)
		case <-tick.C:
			m.evaluate(time.Now())
		}
	}
}

// ingestMetrics fans snapshot batches into the store.
func (m *Monitor) ingestMetrics(batch []*samza.MetricsSnapshotMessage) {
	for _, msg := range batch {
		m.store.IngestSnapshot(msg.Job, msg.Container, msg.TimeMillis, msg.Metrics, msg.Final)
		m.snapshotsIn.Inc()
	}
}

// evaluate runs one rule pass: refresh self-observability, poll health for
// flap tracking, evaluate every rule, and publish any transitions. No
// monitor lock is held while publishing.
func (m *Monitor) evaluate(now time.Time) {
	// Tailer lag gauges + own counters into the store under the
	// pseudo-job, so /query can answer for the monitor itself. A lag
	// refresh failure just leaves the gauge at its last value.
	_, _ = m.tailer.UpdateLag()
	m.store.IngestSnapshot(MonitorJob, -1, now.UnixMilli(), m.reg.Snapshot(), false)

	if m.cfg.Health != nil {
		m.observeHealth(m.cfg.Health(), now.UnixMilli())
	}

	nowMillis := now.UnixMilli()
	var transitions []*AlertMessage
	for _, rule := range m.cfg.Rules {
		for _, v := range m.evalRule(rule, now) {
			if t := m.am.observe(rule, v.job, v.subject, v.violated, v.value, v.reason, nowMillis); t != nil {
				transitions = append(transitions, t)
			}
		}
	}
	for _, t := range transitions {
		m.publishAlert(t)
	}
}

// observeHealth diffs the liveness map against the previous tick and logs
// transitions for the flap rule. First sight of a task is not a flap.
func (m *Monitor) observeHealth(health map[string]map[string]string, nowMillis int64) {
	for job, tasks := range health {
		for task, state := range tasks {
			key := flapKey{job: job, task: task}
			prev, seen := m.prevHealth[key]
			m.prevHealth[key] = state
			if seen && prev != state {
				m.flapLog = append(m.flapLog, flapEvent{key: key, timeMillis: nowMillis})
			}
		}
	}
	if len(m.flapLog) > flapLogCap {
		m.flapLog = m.flapLog[len(m.flapLog)-flapLogCap:]
	}
}

// flapCounts counts logged transitions per task since fromMillis. Tasks
// that are currently tracked but quiet report zero, so their alerts can
// resolve.
func (m *Monitor) flapCounts(fromMillis int64) map[flapKey]int64 {
	out := make(map[flapKey]int64, len(m.prevHealth))
	for key := range m.prevHealth {
		out[key] = 0
	}
	for _, ev := range m.flapLog {
		if ev.timeMillis >= fromMillis {
			out[ev.key]++
		}
	}
	return out
}

// publishAlert produces one transition onto the alerts topic. Errors are
// counted, never fatal: alerting must not take down the monitor.
func (m *Monitor) publishAlert(msg *AlertMessage) {
	key := []byte(msg.Rule + "/" + msg.Subject)
	if err := samza.ProduceRecord(m.cfg.Broker, DefaultAlertsTopic, key, msg.TimeMillis, msg); err != nil {
		m.publishErrors.Inc()
		return
	}
	m.alertsPublished.Inc()
}
