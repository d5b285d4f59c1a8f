package monitor

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"samzasql/internal/metrics"
	"samzasql/internal/profile"
)

// sparkChars are the eight levels of a text sparkline, lowest first.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-height text sparkline scaled to the
// series' own max. An empty or all-zero series renders as flat baseline.
func Sparkline(values []int64) string {
	if len(values) == 0 {
		return ""
	}
	var max int64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 {
			idx = int(v * int64(len(sparkChars)-1) / max)
		}
		sb.WriteRune(sparkChars[idx])
	}
	return sb.String()
}

// sparkPoints downsamples a point series to width buckets (max per bucket)
// for sparkline rendering.
func sparkPoints(pts []Point, width int) []int64 {
	if len(pts) == 0 || width <= 0 {
		return nil
	}
	if len(pts) <= width {
		out := make([]int64, len(pts))
		for i, p := range pts {
			out[i] = p.Value
		}
		return out
	}
	out := make([]int64, width)
	for i, p := range pts {
		b := i * width / len(pts)
		if p.Value > out[b] {
			out[b] = p.Value
		}
	}
	return out
}

// topWindow is the lookback the overview computes rates and percentiles
// over.
const topWindow = 5 * time.Second

// sparkWidth is the sparkline column width in the overview.
const sparkWidth = 24

// topOperators is how many operators the slowest-operator table shows.
const topOperators = 5

// WriteTop renders the live job overview the shell's \top command shows:
// per-job throughput, per-task processing rates, per-partition lag
// sparklines, the slowest operators (merged cross-container p99), and the
// firing alerts.
func (m *Monitor) WriteTop(w io.Writer, now time.Time) {
	from := Window(now, topWindow)
	jobs := m.store.Jobs()
	shown := 0
	for _, job := range jobs {
		if job == MonitorJob || job == "" {
			continue
		}
		shown++
		rate, _ := m.store.CounterRate(job, -1, "messages-processed", from)
		lag := m.store.GaugeSum(job, DefaultLagPrefix)
		fmt.Fprintf(w, "job %-24s %14s   backlog %d\n", job, metrics.FormatThroughput(rate), lag)

		m.writeRuntimeTable(w, job)
		m.writeTaskTable(w, job, from)
		m.writeLagSparklines(w, job, from)
		m.writeOperatorTable(w, job, now)
		fmt.Fprintln(w)
	}
	if shown == 0 {
		fmt.Fprintln(w, "(no job telemetry ingested yet)")
	}
	if active := m.ActiveAlerts(); len(active) > 0 {
		fmt.Fprintln(w, "alerts:")
		for _, a := range active {
			fmt.Fprintf(w, "  FIRING %-28s %-24s value=%d  %s\n", a.Rule, a.Subject, a.Value, a.Reason)
		}
	} else {
		fmt.Fprintln(w, "alerts: none firing")
	}
}

// writeRuntimeTable shows the per-container Go runtime vitals published by
// the runtime/metrics collector: live goroutines, heap in use, and the
// last observed GC pause. Absent series (jobs without MetricsInterval)
// print nothing.
func (m *Monitor) writeRuntimeTable(w io.Writer, job string) {
	containers := map[int]bool{}
	for _, info := range m.store.Series() {
		if info.Key.Job == job && info.Key.Name == profile.RuntimeGoroutines {
			containers[info.Key.Container] = true
		}
	}
	if len(containers) == 0 {
		return
	}
	ids := make([]int, 0, len(containers))
	for c := range containers {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "  %-28s %12s %12s %12s\n", "container runtime", "goroutines", "heap-MiB", "gc-pause-us")
	for _, c := range ids {
		gor, _ := m.store.Latest(SeriesKey{Job: job, Container: c, Name: profile.RuntimeGoroutines})
		heap, _ := m.store.Latest(SeriesKey{Job: job, Container: c, Name: profile.RuntimeHeapLive})
		pause, _ := m.store.Latest(SeriesKey{Job: job, Container: c, Name: profile.RuntimeGCLastPause})
		fmt.Fprintf(w, "  container %-18d %12d %12.1f %12.1f\n",
			c, gor.Value, float64(heap.Value)/(1<<20), float64(pause.Value)/1e3)
	}
}

// writeTaskTable lists per-task processing rates and windowed latency,
// derived from the task.<name>.process-ns histogram deltas.
func (m *Monitor) writeTaskTable(w io.Writer, job string, fromMillis int64) {
	names := m.metricNames(job, "task.", ".process-ns")
	if len(names) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-28s %12s %10s %10s\n", "task", "msg/s", "p95-us", "p99-us")
	for _, name := range names {
		h := m.store.WindowHistogram(job, -1, name, fromMillis)
		secs := float64(topWindow) / float64(time.Second)
		task := strings.TrimSuffix(strings.TrimPrefix(name, "task."), ".process-ns")
		fmt.Fprintf(w, "  %-28s %12.0f %10.1f %10.1f\n",
			task, float64(h.Count)/secs, float64(h.Quantile(0.95))/1e3, float64(h.Quantile(0.99))/1e3)
	}
}

// writeLagSparklines renders one sparkline per partition-lag gauge.
func (m *Monitor) writeLagSparklines(w io.Writer, job string, fromMillis int64) {
	series := m.store.GaugeSeries(job, DefaultLagPrefix, fromMillis)
	if len(series) == 0 {
		return
	}
	keys := make([]SeriesKey, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Container < keys[j].Container
	})
	fmt.Fprintf(w, "  %-28s %-*s %10s\n", "partition lag", sparkWidth, "trend", "now")
	for _, k := range keys {
		pts := series[k]
		fmt.Fprintf(w, "  %-28s %-*s %10d\n",
			strings.TrimPrefix(k.Name, DefaultLagPrefix),
			sparkWidth, Sparkline(sparkPoints(pts, sparkWidth)),
			pts[len(pts)-1].Value)
	}
}

// operatorRow is one line of the slowest-operator table.
type operatorRow struct {
	name  string
	p99Ns int64
	count int64
}

// writeOperatorTable shows the top-N slowest operators by windowed merged
// p99 from the operator histograms.
func (m *Monitor) writeOperatorTable(w io.Writer, job string, now time.Time) {
	from := Window(now, topWindow)
	var rows []operatorRow
	for _, name := range m.metricNames(job, "operator.", ".process-ns") {
		h := m.store.WindowHistogram(job, -1, name, from)
		if h.Count == 0 {
			continue
		}
		rows = append(rows, operatorRow{
			name:  strings.TrimSuffix(strings.TrimPrefix(name, "operator."), ".process-ns"),
			p99Ns: h.Quantile(0.99),
			count: h.Count,
		})
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].p99Ns > rows[j].p99Ns })
	if len(rows) > topOperators {
		rows = rows[:topOperators]
	}
	fmt.Fprintf(w, "  %-28s %10s %10s\n", "slowest operators", "p99-us", "calls")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %10.1f %10d\n", r.name, float64(r.p99Ns)/1e3, r.count)
	}
}

// metricNames lists the distinct metric names for a job matching the
// prefix/suffix pair, sorted.
func (m *Monitor) metricNames(job, prefix, suffix string) []string {
	seen := map[string]bool{}
	for _, info := range m.store.Series() {
		k := info.Key
		if k.Job != job || !strings.HasPrefix(k.Name, prefix) || !strings.HasSuffix(k.Name, suffix) {
			continue
		}
		seen[k.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
