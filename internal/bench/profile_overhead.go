package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"samzasql/internal/monitor"
	"samzasql/internal/profile"
)

// ProfileMode is one point of the profiler-overhead sweep.
type ProfileMode struct {
	Name     string
	Interval time.Duration
	Window   time.Duration
}

// ProfileOverheadModes are the sweep points: off, the always-on default
// (1s interval, 200ms window — 20% CPU-sampling duty), and aggressive
// (window == interval — the CPU sampler never stops).
var ProfileOverheadModes = []ProfileMode{
	{Name: "off"},
	{Name: "default", Interval: profile.DefaultInterval, Window: profile.DefaultWindow},
	{Name: "aggressive", Interval: 250 * time.Millisecond, Window: 250 * time.Millisecond},
}

// ProfileOverheadRow is one measured (query, mode) point.
type ProfileOverheadRow struct {
	Query string
	Mode  string
	// Throughput is the best-of-rounds messages/second — best-of, not mean,
	// so scheduler noise doesn't masquerade as profiling overhead.
	Throughput float64
	// OverheadPct is the throughput loss versus the off row of the same
	// query, in percent (0 for the baseline itself).
	OverheadPct float64
}

// RunProfileOverhead measures continuous-profiling overhead on the filter
// benchmark across ProfileOverheadModes, taking the best of rounds runs per
// point. The acceptance bar: the default mode must stay within ~5% of the
// profiler-off baseline.
func RunProfileOverhead(messages, rounds int) ([]ProfileOverheadRow, error) {
	if rounds < 1 {
		rounds = 1
	}
	var rows []ProfileOverheadRow
	const query = "filter"
	var baseline float64
	for _, mode := range ProfileOverheadModes {
		cfg := DefaultConfig()
		cfg.Messages = messages
		cfg.ProfileInterval = mode.Interval
		cfg.ProfileWindow = mode.Window
		best := 0.0
		for i := 0; i < rounds; i++ {
			res, err := RunSQL(query, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: profile overhead %s mode %s: %w", query, mode.Name, err)
			}
			if res.Throughput > best {
				best = res.Throughput
			}
		}
		row := ProfileOverheadRow{Query: query, Mode: mode.Name, Throughput: best}
		if mode.Name == "off" {
			baseline = best
		} else if baseline > 0 {
			row.OverheadPct = (baseline - best) / baseline * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatProfileOverhead renders the sweep as an aligned table.
func FormatProfileOverhead(rows []ProfileOverheadRow) string {
	var b strings.Builder
	b.WriteString("Continuous-profiling overhead (best-of-N throughput, msg/s)\n")
	fmt.Fprintf(&b, "%-10s %-12s %14s %10s\n", "query", "mode", "throughput", "overhead")
	for _, r := range rows {
		overhead := "baseline"
		if r.Mode != "off" {
			overhead = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		fmt.Fprintf(&b, "%-10s %-12s %14.0f %10s\n", r.Query, r.Mode, r.Throughput, overhead)
	}
	return b.String()
}

// hotFunctionsTopN bounds the hot-function list a profiled run records.
const hotFunctionsTopN = 15

// MinHotSamples is the fewest CPU samples a hot-function list may rest on:
// at 100 Hz that is two CPU-seconds, and a share then moves in steps of at
// most 0.5 percentage points.
const MinHotSamples = 200

// CollectHotFunctions runs one profiled, monitored filter benchmark and
// returns the cluster-merged CPU hot-function list as shares of all sampled
// CPU, with the number of samples it rests on — the per-function baseline
// `make bench-compare` attributes ratio regressions against. Shares (not
// absolute nanoseconds) compare across machines of different speeds. A run
// too short to sample MinHotSamples is an error, not a list: raise
// messages.
func CollectHotFunctions(messages int) ([]HotFunctionReport, int64, error) {
	cfg := DefaultConfig()
	cfg.Messages = messages
	cfg.Monitor = true
	// Aggressive capture: short runs need the CPU sampler always on to
	// attribute enough samples.
	cfg.ProfileInterval = 150 * time.Millisecond
	cfg.ProfileWindow = 150 * time.Millisecond
	return RunSQLProfiled("filter", cfg)
}

// RunSQLProfiled is RunSQL plus hot-function collection: it keeps the
// monitor handle long enough to read the hot store after the run drains,
// and returns the shares of all sampled CPU and the sample count they rest
// on.
func RunSQLProfiled(query string, cfg Config) ([]HotFunctionReport, int64, error) {
	sql, ok := Queries[query]
	if !ok {
		return nil, 0, fmt.Errorf("bench: unknown SQL query %q", query)
	}
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 10 * time.Millisecond
	}
	cfg.Monitor = true
	e, err := newEnv(cfg)
	if err != nil {
		return nil, 0, err
	}
	mon, stopMon, err := e.startMonitor(cfg, nil)
	if err != nil {
		return nil, 0, err
	}
	defer stopMon()
	if err := e.loadOrders(cfg); err != nil {
		return nil, 0, err
	}
	e.engine.Containers = cfg.Containers
	e.engine.ProfileInterval = cfg.ProfileInterval
	e.engine.ProfileWindow = cfg.ProfileWindow
	e.engine.MetricsInterval = cfg.MetricsInterval

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	p, rj, err := e.engine.ExecuteStream(ctx, sql)
	if err != nil {
		return nil, 0, err
	}
	if _, err := awaitProcessed(rj, int64(cfg.Messages), start, benchTimeout); err != nil {
		rj.Stop()
		return nil, 0, err
	}
	// Wait for CPU-bearing batches to reach the monitor, then let the tail
	// of the stream drain before reading the final merged list.
	deadline := time.Now().Add(10 * time.Second)
	var funcs []monitor.HotFunc
	for time.Now().Before(deadline) {
		funcs, _ = mon.HotStore().TopN(p.JobName, monitor.HotKindCPU, hotFunctionsTopN, 0)
		if len(funcs) > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(funcs) > 0 {
		time.Sleep(300 * time.Millisecond)
		funcs, _ = mon.HotStore().TopN(p.JobName, monitor.HotKindCPU, hotFunctionsTopN, 0)
	}
	nanos, samples := mon.HotStore().CPUTotals(p.JobName, 0)
	rj.Stop()
	if len(funcs) == 0 {
		return nil, 0, fmt.Errorf("bench: profiled %s run yielded no cpu hot functions", query)
	}
	out, err := hotShares(funcs, nanos, samples)
	return out, samples, err
}

// hotShares turns merged hot functions into shares of the whole sampled CPU
// (nanos over samples samples), refusing a list built from fewer than
// MinHotSamples samples.
func hotShares(funcs []monitor.HotFunc, nanos, samples int64) ([]HotFunctionReport, error) {
	if samples < MinHotSamples || nanos <= 0 {
		return nil, fmt.Errorf("bench: hot functions rest on %d CPU samples, need at least %d (profile more messages)", samples, MinHotSamples)
	}
	out := make([]HotFunctionReport, 0, len(funcs))
	for _, f := range funcs {
		out = append(out, HotFunctionReport{
			Name:    f.Name,
			FlatPct: 100 * float64(f.Flat) / float64(nanos),
			CumPct:  100 * float64(f.Cum) / float64(nanos),
		})
	}
	return out, nil
}

// FormatHotFunctions renders a collected hot-function baseline and the
// number of CPU samples it rests on.
func FormatHotFunctions(funcs []HotFunctionReport, samples int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CPU hot functions (profiled filter run, share of all sampled CPU, %d samples)\n", samples)
	fmt.Fprintf(&sb, "%-56s %9s %9s\n", "function", "flat", "cum")
	for _, f := range funcs {
		fmt.Fprintf(&sb, "%-56s %8.1f%% %8.1f%%\n", f.Name, f.FlatPct, f.CumPct)
	}
	return sb.String()
}

// HotShift is one function's flat-share change between a baseline report
// and a fresh profiled run.
type HotShift struct {
	Name string
	// OldPct/NewPct are flat shares of sampled CPU in percent; 0 when the
	// function is absent from that side.
	OldPct float64
	NewPct float64
	Delta  float64
}

// CompareHotFunctions diffs two hot-function lists by flat share, returning
// the biggest risers first — the attribution table a flagged ratio
// regression prints so the offending function arrives with the alarm.
func CompareHotFunctions(baseline, fresh []HotFunctionReport) []HotShift {
	old := map[string]float64{}
	for _, f := range baseline {
		old[f.Name] = f.FlatPct
	}
	seen := map[string]bool{}
	var out []HotShift
	for _, f := range fresh {
		seen[f.Name] = true
		out = append(out, HotShift{Name: f.Name, OldPct: old[f.Name], NewPct: f.FlatPct, Delta: f.FlatPct - old[f.Name]})
	}
	for _, f := range baseline {
		if !seen[f.Name] {
			out = append(out, HotShift{Name: f.Name, OldPct: f.FlatPct, Delta: -f.FlatPct})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Delta > out[j].Delta })
	return out
}

// FormatHotShifts renders the top risers of a hot-function comparison.
func FormatHotShifts(shifts []HotShift, top int) string {
	if len(shifts) == 0 {
		return "(no hot-function baseline to attribute against)\n"
	}
	if top > 0 && len(shifts) > top {
		shifts = shifts[:top]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-56s %9s %9s %9s\n", "hot function (cpu flat share)", "base", "current", "delta")
	for _, s := range shifts {
		fmt.Fprintf(&sb, "%-56s %8.1f%% %8.1f%% %+8.1f%%\n", s.Name, s.OldPct, s.NewPct, s.Delta)
	}
	return sb.String()
}
