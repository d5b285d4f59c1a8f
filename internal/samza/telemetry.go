package samza

import (
	"context"
	"time"

	"samzasql/internal/metrics"
	"samzasql/internal/trace"
)

// The framework's control streams, one per record type below. The "__"
// prefix keeps them out of user-topic trace sampling.
const (
	// DefaultMetricsTopic carries MetricsSnapshotMessage records — Samza's
	// "metrics" stream convention.
	DefaultMetricsTopic = "__metrics"
	// DefaultTraceTopic carries TraceBatchMessage records: containers' span
	// drains and the runner's lifecycle events.
	DefaultTraceTopic = "__traces"
)

// DefaultTraceInterval is the trace reporter period used when a job enables
// sampling without choosing one.
const DefaultTraceInterval = 250 * time.Millisecond

// MetricsSnapshotMessage is one published registry snapshot — the analog of
// Samza's MetricsSnapshot envelope.
type MetricsSnapshotMessage struct {
	Header
	// Metrics is the typed registry snapshot.
	Metrics metrics.Snapshot `json:"metrics"`
}

// metricsCollector is the metrics stream's collect: run refresh, which
// updates pull-style gauges (consumer lag, runtime/metrics) that nothing on
// the hot path touches, then snapshot the registry — the final flush
// included, so it carries complete end-of-run counters.
func metricsCollector(reg *metrics.Registry, refresh func()) func(context.Context, bool) Record {
	return func(context.Context, bool) Record {
		refresh()
		return &MetricsSnapshotMessage{Metrics: reg.Snapshot()}
	}
}

// TraceBatchMessage is one published drain of a container's span ring plus
// any lifecycle events since the previous batch, or one runner lifecycle
// event (Job "", Container -1).
type TraceBatchMessage struct {
	Header
	// Spans are the completed spans drained from the ring, arrival order.
	Spans []trace.Span `json:"spans,omitempty"`
	// Events are lifecycle events recorded since the last batch.
	Events []trace.Event `json:"events,omitempty"`
	// Dropped counts spans/events lost to ring overflow since the last
	// batch — nonzero means the sample rate outruns the reporter.
	Dropped int64 `json:"dropped,omitempty"`
}

// traceCollector is the trace stream's collect: drain the container's
// recorder (feeding its recent-trace store as a side effect). An empty
// drain publishes nothing, the final one included, so the spans of the
// last sampled messages survive a stop.
func traceCollector(drain func() ([]trace.Span, []trace.Event, int64)) func(context.Context, bool) Record {
	return func(context.Context, bool) Record {
		spans, events, dropped := drain()
		if len(spans) == 0 && len(events) == 0 && dropped == 0 {
			return nil
		}
		return &TraceBatchMessage{Spans: spans, Events: events, Dropped: dropped}
	}
}
