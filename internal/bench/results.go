package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Report is the machine-readable benchmark output (BENCH_results.json):
// per-figure throughput series with operator latency percentiles.
type Report struct {
	// Messages/Partitions echo the run configuration.
	Messages   int            `json:"messages"`
	Partitions int32          `json:"partitions"`
	Figures    []FigureReport `json:"figures,omitempty"`
}

// FigureReport is one figure's measured series.
type FigureReport struct {
	ID    string            `json:"id"`
	Title string            `json:"title"`
	Query string            `json:"query"`
	Rows  []FigureReportRow `json:"rows"`
}

// FigureReportRow is one container-count point.
type FigureReportRow struct {
	Containers     int     `json:"containers"`
	NativeRowsSec  float64 `json:"native_rows_per_sec"`
	SQLRowsSec     float64 `json:"samzasql_rows_per_sec"`
	SQLNativeRatio float64 `json:"sql_native_ratio"`
	// Operators carries the SamzaSQL run's per-operator latency percentiles
	// (inclusive of each operator's downstream chain), from the
	// "operator.<stage>.process-ns" histograms.
	Operators []OperatorLatency `json:"operator_latencies,omitempty"`
}

// OperatorLatency summarizes one operator's process-time histogram.
type OperatorLatency struct {
	Operator string `json:"operator"`
	Count    int64  `json:"count"`
	P50Ns    int64  `json:"p50_ns"`
	P95Ns    int64  `json:"p95_ns"`
	P99Ns    int64  `json:"p99_ns"`
	MaxNs    int64  `json:"max_ns"`
}

// ReportFigure converts one measured figure into its report form.
func ReportFigure(spec FigureSpec, rows []FigureRow) FigureReport {
	fr := FigureReport{ID: spec.ID, Title: spec.Title, Query: spec.Query}
	for _, r := range rows {
		row := FigureReportRow{
			Containers:     r.Containers,
			NativeRowsSec:  r.Native,
			SQLRowsSec:     r.SQL,
			SQLNativeRatio: r.Ratio,
			Operators:      operatorLatencies(r),
		}
		fr.Rows = append(fr.Rows, row)
	}
	return fr
}

// operatorLatencies extracts the per-operator histograms of one SamzaSQL run,
// sorted by operator name. Empty when the run had no snapshot reporter.
func operatorLatencies(r FigureRow) []OperatorLatency {
	var out []OperatorLatency
	for name, h := range r.SQLSnap.Histograms {
		if !strings.HasPrefix(name, "operator.") || !strings.HasSuffix(name, ".process-ns") {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(name, "operator."), ".process-ns")
		out = append(out, OperatorLatency{
			Operator: stage,
			Count:    h.Count,
			P50Ns:    h.P50,
			P95Ns:    h.P95,
			P99Ns:    h.P99,
			MaxNs:    h.Max,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Operator < out[j].Operator })
	return out
}

// MergeFrom fills what this run did not measure from prev, the report
// already on disk, so that writing a partial run — one figure — replaces
// its own sections and keeps every other one. Figures
// merge per ID: prev's order is kept, a re-measured figure takes its old
// place, new IDs follow. Messages and Partitions echo
// this run's configuration only when it measured a figure.
func (r *Report) MergeFrom(prev *Report) {
	if len(r.Figures) == 0 {
		r.Messages, r.Partitions = prev.Messages, prev.Partitions
	}
	fresh := map[string]FigureReport{}
	for _, f := range r.Figures {
		fresh[f.ID] = f
	}
	merged := make([]FigureReport, 0, len(prev.Figures)+len(r.Figures))
	for _, f := range prev.Figures {
		if nf, ok := fresh[f.ID]; ok {
			f = nf
			delete(fresh, f.ID)
		}
		merged = append(merged, f)
	}
	for _, f := range r.Figures {
		if _, ok := fresh[f.ID]; ok {
			merged = append(merged, f)
		}
	}
	r.Figures = merged
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	return nil
}
