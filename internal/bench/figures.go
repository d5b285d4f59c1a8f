package bench

import (
	"fmt"
	"sort"
	"strings"

	"samzasql/internal/metrics"
)

// FigureRow is one (container count) point of a figure: native and
// SamzaSQL job throughput plus their ratio.
type FigureRow struct {
	Containers int
	Native     float64 // msgs/sec
	SQL        float64 // msgs/sec
	Ratio      float64 // SQL / native
	// SQLSnap is the SamzaSQL run's merged end-of-run metrics, carrying the
	// per-operator latency histograms FormatOperatorLatencies renders.
	SQLSnap metrics.Snapshot
	// SQLMonitor is the SamzaSQL run's lag-recovery record (Config.Monitor
	// runs only).
	SQLMonitor *MonitorSummary
}

// FigureSpec maps a paper figure to its benchmark query and sweep.
type FigureSpec struct {
	ID         string
	Title      string
	Query      string
	Containers []int
	// Expected describes the paper's qualitative result, printed alongside
	// measurements so EXPERIMENTS.md comparisons are self-contained.
	Expected string
}

// Figures lists every figure of the paper's evaluation (§5).
var Figures = []FigureSpec{
	{
		ID: "5a", Title: "Filter query throughput (Figure 5a)",
		Query: "filter", Containers: []int{1, 2, 4, 8},
		Expected: "SamzaSQL 30-40% below native (message-format transformation); sublinear scaling at fixed partition count",
	},
	{
		ID: "5b", Title: "Project query throughput (Figure 5b)",
		Query: "project", Containers: []int{1, 2, 4, 8},
		Expected: "SamzaSQL 30-40% below native (AvroToArray/ArrayToAvro); here vectorized blocks amortize the serde gap to near parity",
	},
	{
		ID: "5c", Title: "Stream-to-relation join throughput (Figure 5c)",
		Query: "join", Containers: []int{1, 2, 4, 8},
		Expected: "SamzaSQL about 2x slower (object serde per probe); here SamzaSQL probes a typed in-memory relation table with no store read or row decode, while the native task reads and Avro-decodes a stored row per message, putting it above the baseline",
	},
	{
		ID: "6", Title: "Sliding window operator throughput (Figure 6)",
		Query: "window", Containers: []int{1, 2, 4, 8},
		Expected: "near parity, both KV-bound; here the native baseline keeps the paper's per-message state layout while SamzaSQL keeps chunked per-partition state written as one batch per block, putting it well above the baseline",
	},
}

// FigureByID resolves a figure spec.
func FigureByID(id string) (FigureSpec, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return FigureSpec{}, false
}

// RunFigure sweeps the container counts of one figure, running the
// native/SamzaSQL pair at each point.
func RunFigure(spec FigureSpec, cfg Config) ([]FigureRow, error) {
	var rows []FigureRow
	for _, c := range spec.Containers {
		runCfg := cfg
		runCfg.Containers = c
		nat, err := RunNative(spec.Query, runCfg)
		if err != nil {
			return nil, fmt.Errorf("figure %s native x%d: %w", spec.ID, c, err)
		}
		sql, err := RunSQL(spec.Query, runCfg)
		if err != nil {
			return nil, fmt.Errorf("figure %s samzasql x%d: %w", spec.ID, c, err)
		}
		rows = append(rows, FigureRow{
			Containers: c,
			Native:     nat.Throughput,
			SQL:        sql.Throughput,
			Ratio:      sql.Throughput / nat.Throughput,
			SQLSnap:    sql.Snapshot,
			SQLMonitor: sql.Monitor,
		})
	}
	return rows, nil
}

// FormatFigure renders the measured series as the paper's figure data.
func FormatFigure(spec FigureSpec, rows []FigureRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", spec.Title)
	fmt.Fprintf(&sb, "  paper: %s\n", spec.Expected)
	fmt.Fprintf(&sb, "  %-10s  %14s  %14s  %9s\n", "containers", "native msg/s", "samzasql msg/s", "sql/native")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10d  %14.0f  %14.0f  %8.2fx\n", r.Containers, r.Native, r.SQL, r.Ratio)
	}
	for _, r := range rows {
		if r.SQLMonitor != nil {
			fmt.Fprintf(&sb, "  monitor x%d: %s", r.Containers, FormatMonitorSummary(r.SQLMonitor))
		}
	}
	return sb.String()
}

// FormatOperatorLatencies renders the per-operator latency percentiles of
// the figure's first (single-container) SamzaSQL run, from the
// "operator.<stage>.process-ns" histograms the snapshot reporter publishes.
// Latencies are each operator's own time, exclusive of its downstream chain.
func FormatOperatorLatencies(spec FigureSpec, rows []FigureRow) string {
	if len(rows) == 0 {
		return ""
	}
	snap := rows[0].SQLSnap
	var names []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "operator.") && strings.HasSuffix(name, ".process-ns") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — per-operator latency, SamzaSQL x%d (ns; exclusive of downstream)\n",
		spec.Title, rows[0].Containers)
	fmt.Fprintf(&sb, "  %-24s %10s %9s %9s %9s %10s %10s\n",
		"operator", "count", "p50", "p95", "p99", "max", "out")
	for _, name := range names {
		h := snap.Histograms[name]
		stage := strings.TrimSuffix(strings.TrimPrefix(name, "operator."), ".process-ns")
		out := "-"
		if v, ok := snap.Counters["operator."+stage+".out"]; ok {
			out = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(&sb, "  %-24s %10d %9d %9d %9d %10d %10s\n",
			stage, h.Count, h.P50, h.P95, h.P99, h.Max, out)
	}
	return sb.String()
}

// CheckShape verifies the measured rows reproduce the paper's qualitative
// result for the figure, returning a list of violations (empty = shape
// holds). Thresholds are deliberately loose: the substrate is an in-process
// simulator, not the paper's EC2 cluster.
func CheckShape(spec FigureSpec, rows []FigureRow) []string {
	var bad []string
	for _, r := range rows {
		switch spec.Query {
		case "filter":
			if r.Ratio >= 0.95 {
				bad = append(bad, fmt.Sprintf("x%d: SQL (%.0f) not measurably below native (%.0f)", r.Containers, r.SQL, r.Native))
			}
		case "project":
			// Vectorized projection amortizes decode and flush per block, so
			// it brushes native parity; guard against regressing back toward
			// the per-tuple gap (and against implausible >native readings).
			if r.Ratio < 0.5 || r.Ratio >= 1.5 {
				bad = append(bad, fmt.Sprintf("x%d: project ratio %.2f outside vectorized band [0.5, 1.5)", r.Containers, r.Ratio))
			}
		case "join":
			// Block-native join with batched relation reads closed the
			// paper's 2x serde gap, and plan-typed state rows plus sparse
			// scans put SQL above the native task, which keeps full Avro
			// rows (1.23–1.64 measured, EXPERIMENTS.md): the floor guards
			// the vectorized win, the ceiling catches implausible readings.
			if r.Ratio < 0.7 || r.Ratio >= 1.8 {
				bad = append(bad, fmt.Sprintf("x%d: join ratio %.2f outside vectorized band [0.7, 1.8)", r.Containers, r.Ratio))
			}
		case "window":
			// The native baseline keeps the paper's per-message layout (a
			// key per message, range-scan purge, per-tuple state round trip);
			// the SQL operator keeps a chunked deque per partition and writes
			// one batch per block, so SQL lands well above parity (3.5–5.0x
			// measured, EXPERIMENTS.md). The ceiling still catches an
			// implausible reading.
			if r.Ratio < 0.7 || r.Ratio >= 6 {
				bad = append(bad, fmt.Sprintf("x%d: window ratio %.2f outside vectorized band [0.7, 6)", r.Containers, r.Ratio))
			}
		}
	}
	// Monotone-ish window sweep: adding containers must never crater the SQL
	// side. (The pre-vectorization x4 dip to 0.48 was a native-side spike —
	// the ratio floor above now absorbs that — but a SQL-side collapse at one
	// sweep point would still pass per-point ratio checks on a noisy run.)
	if spec.Query == "window" {
		best := 0.0
		for _, r := range rows {
			if r.SQL < 0.5*best {
				bad = append(bad, fmt.Sprintf("x%d: SQL window throughput %.0f collapsed below half of an earlier sweep point (%.0f)", r.Containers, r.SQL, best))
			}
			if r.SQL > best {
				best = r.SQL
			}
		}
	}
	return bad
}
