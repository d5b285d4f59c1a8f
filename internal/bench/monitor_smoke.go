package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/monitor"
	"samzasql/internal/samza"
)

// MonitorSummary is the lag-recovery record of one monitored benchmark run:
// how far behind the job fell (the pre-loaded workload is an injected lag
// spike — every message is backlog at submit time) and how long it took the
// backlog to drain back to zero, as seen through the monitor's ingested
// __metrics series rather than the job's own registries.
type MonitorSummary struct {
	// PeakLag is the highest per-partition consumer lag any ingested
	// snapshot recorded.
	PeakLag int64
	// PeakAtMillis is the snapshot timestamp of the peak.
	PeakAtMillis int64
	// RecoveryMillis is the time from the peak to the first snapshot showing
	// that partition fully drained (lag 0); -1 when no drained snapshot was
	// ingested before the job stopped.
	RecoveryMillis int64
	// AlertsFired / AlertsResolved count the alert transitions published on
	// __alerts during the run.
	AlertsFired    int
	AlertsResolved int
}

// startMonitor attaches a cluster monitor to the env's broker when the
// config asks for one. The returned stop function is a no-op when disabled.
func (e *env) startMonitor(cfg Config, rules []monitor.Rule) (*monitor.Monitor, func(), error) {
	if !cfg.Monitor {
		return nil, func() {}, nil
	}
	runner := e.runner
	mon, err := monitor.Start(monitor.Config{
		Broker:       e.broker,
		EvalInterval: 5 * time.Millisecond,
		Rules:        rules,
		Health: func() map[string]map[string]string {
			out := map[string]map[string]string{}
			for _, j := range runner.Jobs() {
				out[j.Spec.Name] = j.TaskHealth()
			}
			return out
		},
	})
	if err != nil {
		return nil, nil, err
	}
	mon.Register(runner)
	return mon, mon.Stop, nil
}

// summarizeMonitor reads the lag series the monitor ingested for one job
// plus the alert transition log. It reads raw ranges (not the live-gauge
// views), so it stays valid after final snapshots close the containers out.
func summarizeMonitor(mon *monitor.Monitor, job string) *MonitorSummary {
	st := mon.Store()
	s := &MonitorSummary{RecoveryMillis: -1}
	var peakKey monitor.SeriesKey
	for _, info := range st.Series() {
		k := info.Key
		if k.Job != job || info.Kind != monitor.KindGauge || !strings.HasPrefix(k.Name, monitor.DefaultLagPrefix) {
			continue
		}
		for _, pts := range st.Range(k.Job, k.Container, k.Name, 0) {
			for _, p := range pts {
				if p.Value > s.PeakLag {
					s.PeakLag, s.PeakAtMillis, peakKey = p.Value, p.TimeMillis, k
				}
			}
		}
	}
	if s.PeakLag > 0 {
		for _, pts := range st.Range(peakKey.Job, peakKey.Container, peakKey.Name, s.PeakAtMillis) {
			for _, p := range pts {
				if p.Value == 0 {
					s.RecoveryMillis = p.TimeMillis - s.PeakAtMillis
					break
				}
			}
		}
	}
	for _, a := range mon.RecentAlerts(0) {
		switch a.State {
		case monitor.StateFiring:
			s.AlertsFired++
		case monitor.StateResolved:
			s.AlertsResolved++
		}
	}
	return s
}

// awaitMonitorSummary polls the summary until the lag series shows a full
// recovery (or the deadline passes — snapshot ingestion is asynchronous, so
// the drained-to-zero sample can arrive a few reporter periods after the
// last message is processed).
func awaitMonitorSummary(mon *monitor.Monitor, job string, timeout time.Duration) *MonitorSummary {
	deadline := time.Now().Add(timeout)
	for {
		s := summarizeMonitor(mon, job)
		if s.RecoveryMillis >= 0 || time.Now().After(deadline) {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// throttledFilterTask slows the native filter down so the pre-loaded
// backlog drains over an observable number of snapshot periods instead of
// a single one — the smoke test's controllable lag spike.
type throttledFilterTask struct {
	filter NativeFilterTask
	delay  time.Duration
}

func (t *throttledFilterTask) Process(env samza.IncomingMessageEnvelope, c samza.MessageCollector, coord samza.Coordinator) error {
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	return t.filter.Process(env, c, coord)
}

// Init implements samza.StreamTask. The filter is a field, not embedded,
// so its block path is not promoted: every message goes through Process.
func (t *throttledFilterTask) Init(ctx *samza.TaskContext) error { return t.filter.Init(ctx) }

// MonitorSmokeReport is what RunMonitorSmoke measured and verified.
type MonitorSmokeReport struct {
	Addr     string
	Messages int
	Summary  *MonitorSummary
}

// smokeTimeout bounds the whole smoke run.
const smokeTimeout = 60 * time.Second

// RunMonitorSmoke is the CI smoke behind `make monitor-smoke` and
// `-figure monitor-smoke`: it starts a monitored job with an injected lag
// spike (the whole workload pre-produced as backlog, drained by a
// deliberately throttled task), serves the introspection endpoints on a
// loopback port, and asserts over HTTP that /query answers, /alerts answers,
// a lag alert fires, and the alert resolves once the backlog drains.
func RunMonitorSmoke(messages int) (MonitorSmokeReport, error) {
	cfg := DefaultConfig()
	cfg.Messages = messages
	cfg.Partitions = 4
	cfg.Containers = 1
	cfg.Monitor = true
	cfg.MetricsInterval = 10 * time.Millisecond
	e, err := newEnv(cfg)
	if err != nil {
		return MonitorSmokeReport{}, err
	}
	// Fire when a partition's backlog holds above 1/8 of the workload —
	// guaranteed at submit (each partition starts with messages/partitions
	// backlog), cleared when drained.
	rules := []monitor.Rule{monitor.LagRule(int64(messages)/8, 500*time.Millisecond, 2)}
	mon, stopMon, err := e.startMonitor(cfg, rules)
	if err != nil {
		return MonitorSmokeReport{}, err
	}
	defer stopMon()
	addr, shutdown, err := e.runner.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		return MonitorSmokeReport{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = shutdown(ctx)
	}()
	if err := e.loadOrders(cfg); err != nil {
		return MonitorSmokeReport{}, err
	}
	outTopic := "bench-out"
	if err := e.broker.EnsureTopic(outTopic, kafka.TopicConfig{Partitions: cfg.Partitions}); err != nil {
		return MonitorSmokeReport{}, err
	}

	const jobName = "monitor-smoke"
	job := &samza.JobSpec{
		Name:            jobName,
		Inputs:          []samza.StreamSpec{{Topic: "orders"}},
		Containers:      1,
		CommitEvery:     1000,
		MetricsInterval: cfg.MetricsInterval,
		Config:          map[string]string{},
		TaskFactory: func() samza.StreamTask {
			return &throttledFilterTask{filter: NativeFilterTask{Output: outTopic}, delay: 100 * time.Microsecond}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	rj, err := e.runner.Submit(ctx, job)
	if err != nil {
		return MonitorSmokeReport{}, err
	}
	defer rj.Stop()
	base := "http://" + addr

	// The smoke's contract is the HTTP surface, so every check goes through
	// the introspection server, not in-process accessors.
	if err := awaitHTTP(base, smokeTimeout, func() (bool, error) {
		var q monitor.QueryResponse
		if err := getJSON(base+"/query?metric=messages-processed&agg=rate&job="+jobName+"&window=30s", &q); err != nil {
			return false, nil
		}
		return q.Count > 0, nil
	}); err != nil {
		return MonitorSmokeReport{}, fmt.Errorf("monitor smoke: /query never reported job progress: %w", err)
	}
	if err := awaitHTTP(base, smokeTimeout, func() (bool, error) {
		var a monitor.AlertsResponse
		if err := getJSON(base+"/alerts", &a); err != nil {
			return false, nil
		}
		for _, r := range a.Recent {
			if r.Kind == string(monitor.RuleLag) && r.State == monitor.StateFiring {
				return true, nil
			}
		}
		return false, nil
	}); err != nil {
		return MonitorSmokeReport{}, fmt.Errorf("monitor smoke: no lag alert fired: %w", err)
	}
	if _, err := awaitProcessed(rj, int64(messages), start, smokeTimeout); err != nil {
		return MonitorSmokeReport{}, err
	}
	if err := awaitHTTP(base, smokeTimeout, func() (bool, error) {
		var a monitor.AlertsResponse
		if err := getJSON(base+"/alerts", &a); err != nil {
			return false, nil
		}
		for _, r := range a.Recent {
			if r.Kind == string(monitor.RuleLag) && r.State == monitor.StateResolved {
				return true, nil
			}
		}
		return false, nil
	}); err != nil {
		return MonitorSmokeReport{}, fmt.Errorf("monitor smoke: lag alert never resolved after drain: %w", err)
	}
	summary := awaitMonitorSummary(mon, jobName, time.Second)
	return MonitorSmokeReport{Addr: addr, Messages: messages, Summary: summary}, nil
}

// getJSON fetches a URL and decodes its JSON body, failing on non-200s.
func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// awaitHTTP polls cond until it reports true or the timeout passes.
func awaitHTTP(what string, timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s polling %s", timeout, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FormatMonitorSmoke renders the smoke outcome for the terminal and CI log.
func FormatMonitorSmoke(r MonitorSmokeReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "monitor smoke (%d messages, introspection on %s)\n", r.Messages, r.Addr)
	fmt.Fprintf(&sb, "  /query responded, /alerts responded, lag alert fired and resolved\n")
	fmt.Fprintf(&sb, "  %s", FormatMonitorSummary(r.Summary))
	return sb.String()
}

// FormatMonitorSummary renders one run's lag-recovery line.
func FormatMonitorSummary(s *MonitorSummary) string {
	if s == nil {
		return ""
	}
	recovery := "not observed"
	if s.RecoveryMillis >= 0 {
		recovery = fmt.Sprintf("%dms", s.RecoveryMillis)
	}
	return fmt.Sprintf("peak lag %d msgs, recovery %s, alerts fired/resolved %d/%d\n",
		s.PeakLag, recovery, s.AlertsFired, s.AlertsResolved)
}
