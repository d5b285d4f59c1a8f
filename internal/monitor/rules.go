package monitor

import (
	"fmt"
	"time"
)

// RuleKind selects the evaluation strategy.
type RuleKind string

const (
	// RuleLag fires when a per-partition consumer-lag gauge stays at or
	// above Threshold messages. The reason line reports the growth over the
	// window, so a sustained-growth incident is distinguishable from a
	// steady backlog.
	RuleLag RuleKind = "lag"
	// RuleThroughputDrop fires when the rate of a counter over the last
	// Window falls below (1 - DropFraction) of its rate over the trailing
	// window [2·Window, Window) — sudden slowdowns against the job's own
	// recent baseline, not an absolute bound.
	RuleThroughputDrop RuleKind = "throughput-drop"
	// RuleTaskFlap fires when a task's /healthz liveness state changes at
	// least Threshold times within Window — a task cycling through
	// running/failed/restarting instead of settling.
	RuleTaskFlap RuleKind = "task-flap"
)

// Rule is one declarative SLO condition the evaluator checks every
// EvalInterval. A rule fires per subject (partition gauge, metric, task),
// so one rule yields one alert per violating subject, each with its own
// firing/resolved lifecycle.
type Rule struct {
	// Name identifies the rule in alert records; must be unique within a
	// monitor's rule set.
	Name string
	// Kind selects the evaluation strategy.
	Kind RuleKind
	// Metric is the metric the rule reads: a gauge name prefix for RuleLag
	// (default "kafka.lag.") or a counter name for RuleThroughputDrop.
	// Unused for RuleTaskFlap.
	Metric string
	// Job restricts the rule to one job; empty means every job.
	Job string
	// Threshold is the bound: lag messages or flap count.
	Threshold int64
	// DropFraction (RuleThroughputDrop only) is the fractional drop versus
	// the trailing window that counts as a violation, e.g. 0.5 fires when
	// throughput halves.
	DropFraction float64
	// Window is the evaluation lookback.
	Window time.Duration
	// Sustain is how many consecutive evaluations the condition must hold
	// before firing (and clear before resolving). 0 means 1.
	Sustain int
}

// DefaultLagPrefix is the gauge namespace per-partition consumer lag lives
// in (bound by Consumer.BindLagGauge as "kafka.lag.<topic>.<partition>").
const DefaultLagPrefix = "kafka.lag."

// LagRule builds a sustained consumer-lag rule over every partition gauge.
func LagRule(threshold int64, window time.Duration, sustain int) Rule {
	return Rule{
		Name:      fmt.Sprintf("lag-over-%d", threshold),
		Kind:      RuleLag,
		Metric:    DefaultLagPrefix,
		Threshold: threshold,
		Window:    window,
		Sustain:   sustain,
	}
}

// ThroughputDropRule builds a rule firing when counter's rate drops by
// dropFraction versus the trailing window.
func ThroughputDropRule(counter string, dropFraction float64, window time.Duration, sustain int) Rule {
	return Rule{
		Name:         fmt.Sprintf("throughput-drop-%s", counter),
		Kind:         RuleThroughputDrop,
		Metric:       counter,
		DropFraction: dropFraction,
		Window:       window,
		Sustain:      sustain,
	}
}

// TaskFlapRule builds a task-liveness flap rule: maxFlaps state changes
// within window fire it.
func TaskFlapRule(maxFlaps int64, window time.Duration) Rule {
	return Rule{
		Name:      "task-flap",
		Kind:      RuleTaskFlap,
		Threshold: maxFlaps,
		Window:    window,
	}
}

// DefaultRules is a conservative starter set: sustained lag over 10k
// messages, throughput halving, and 3 liveness flaps in 30 seconds.
func DefaultRules() []Rule {
	return []Rule{
		LagRule(10_000, 5*time.Second, 3),
		ThroughputDropRule("messages-processed", 0.5, 5*time.Second, 3),
		TaskFlapRule(3, 30*time.Second),
	}
}

// violation is one subject's evaluation result inside an eval pass.
type violation struct {
	job      string
	subject  string
	violated bool
	value    int64
	reason   string
}

// evalRule computes this eval pass's violations for one rule. It reads the
// store (RLock inside each accessor) and the flap log; it holds no lock of
// its own, so the caller can publish transitions immediately after.
func (m *Monitor) evalRule(r Rule, now time.Time) []violation {
	switch r.Kind {
	case RuleLag:
		return m.evalLag(r, now)
	case RuleThroughputDrop:
		return m.evalThroughputDrop(r, now)
	case RuleTaskFlap:
		return m.evalTaskFlap(r, now)
	default:
		return nil
	}
}

// evalLag checks every per-partition lag gauge against the threshold. Lag
// gauges from different containers never overlap (each partition has one
// owner), so per-subject evaluation needs no cross-container merge —
// subjects are job/gauge-name pairs.
func (m *Monitor) evalLag(r Rule, now time.Time) []violation {
	prefix := r.Metric
	if prefix == "" {
		prefix = DefaultLagPrefix
	}
	from := Window(now, r.Window)
	series := m.store.GaugeSeries(r.Job, prefix, from)
	// Aggregate by (job, name): after a container restart the same gauge
	// may briefly exist under two container IDs; latest point wins.
	type subjKey struct{ job, name string }
	latest := map[subjKey]Point{}
	earliest := map[subjKey]Point{}
	for k, pts := range series {
		sk := subjKey{job: k.Job, name: k.Name}
		last := pts[len(pts)-1]
		if cur, ok := latest[sk]; !ok || last.TimeMillis > cur.TimeMillis {
			latest[sk] = last
		}
		first := pts[0]
		if cur, ok := earliest[sk]; !ok || first.TimeMillis < cur.TimeMillis {
			earliest[sk] = first
		}
	}
	out := make([]violation, 0, len(latest))
	for sk, last := range latest {
		growth := last.Value - earliest[sk].Value
		v := violation{
			job:      sk.job,
			subject:  sk.name,
			violated: last.Value >= r.Threshold,
			value:    last.Value,
		}
		if v.violated {
			v.reason = fmt.Sprintf("lag %d >= %d (%+d over %s)", last.Value, r.Threshold, growth, r.Window)
		}
		out = append(out, v)
	}
	return out
}

// evalThroughputDrop compares the counter's rate over the last window to
// its rate over the trailing window, per job.
func (m *Monitor) evalThroughputDrop(r Rule, now time.Time) []violation {
	jobs := []string{r.Job}
	if r.Job == "" {
		jobs = m.store.Jobs()
	}
	var out []violation
	for _, job := range jobs {
		if job == MonitorJob {
			continue // the monitor's own series are not a workload
		}
		recentFrom := Window(now, r.Window)
		trailingFrom := Window(now, 2*r.Window)
		recentRate, _ := m.store.CounterRate(job, -1, r.Metric, recentFrom)
		// Trailing rate over [2W, W): approximate via rates over [2W, now]
		// and [W, now] — trailing = 2*whole - recent.
		wholeRate, _ := m.store.CounterRate(job, -1, r.Metric, trailingFrom)
		trailingRate := 2*wholeRate - recentRate
		if trailingRate <= 0 {
			continue // no baseline yet (job just started or already idle)
		}
		pct := int64(100 * recentRate / trailingRate)
		v := violation{
			job:      job,
			subject:  r.Metric,
			violated: recentRate < (1-r.DropFraction)*trailingRate,
			value:    pct,
		}
		if v.violated {
			v.reason = fmt.Sprintf("throughput %.0f/s is %d%% of trailing %.0f/s (drop bound %.0f%%)",
				recentRate, pct, trailingRate, 100*(1-r.DropFraction))
		}
		out = append(out, v)
	}
	return out
}

// evalTaskFlap counts liveness state changes per task within the window
// from the health poller's flap log.
func (m *Monitor) evalTaskFlap(r Rule, now time.Time) []violation {
	from := Window(now, r.Window)
	flaps := m.flapCounts(from)
	out := make([]violation, 0, len(flaps))
	for subj, count := range flaps {
		v := violation{
			job:      subj.job,
			subject:  subj.task,
			violated: count >= r.Threshold,
			value:    count,
		}
		if v.violated {
			v.reason = fmt.Sprintf("%d liveness transitions in %s (bound %d)", count, r.Window, r.Threshold)
		}
		out = append(out, v)
	}
	return out
}
