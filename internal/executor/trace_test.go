package executor

import (
	"context"
	"strings"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/workload"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"
)

// tracedEngine is testEngine with broker sampling installed before the
// workload lands, so the pre-produced messages carry trace contexts.
func tracedEngine(t *testing.T, orders int) *Engine {
	t.Helper()
	broker := kafka.NewBroker()
	broker.SetTraceSampling(1.0)
	cluster := yarn.NewCluster()
	cluster.AddNode("n1", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.ProduceOrders(broker, "orders", 2, orders, workload.DefaultOrdersConfig()); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, broker, samza.NewJobRunner(broker, cluster), zk.NewStore())
	e.TraceSampleRate = 1.0
	e.TraceInterval = 5 * time.Millisecond
	return e
}

// TestTracedQueryPublishesOperatorSpans runs a fully sampled SQL query and
// asserts the published traces cover produce → poll → process → operator
// stages, end to end through the executor.
func TestTracedQueryPublishesOperatorSpans(t *testing.T) {
	e := tracedEngine(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, job, err := e.ExecuteStream(ctx, "SELECT STREAM productId, units FROM Orders WHERE units > 50")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for job.MetricsSnapshot().Counters["messages-processed"] < 50 {
		if time.Now().After(deadline) {
			t.Fatal("job never processed the workload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	job.Stop()

	stages := map[string]bool{}
	for _, td := range job.Main.RecentTraces() {
		for _, s := range td.Spans {
			stages[s.Stage] = true
		}
	}
	for _, want := range []string{"produce", "poll", "process", "operator.filter"} {
		if !stages[want] {
			t.Errorf("no %q span in recent traces; have %v", want, stages)
		}
	}

	// The runner-level rendering both /debug/traces and \trace share.
	var b strings.Builder
	e.Runner.WriteTraces(&b)
	out := b.String()
	for _, want := range []string{"operator.filter", "process", "queue-wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTraces output missing %q:\n%s", want, out)
		}
	}
}

// TestBlockTraceSpansCarryRowCounts guards the batched tracing contract: a
// sampled message processed inside a columnar block still gets a full
// produce → poll → process → operator.* span tree, and every operator span
// reports the number of rows the block stage covered — with at least one
// genuinely multi-row block proving delivery was vectorized.
func TestBlockTraceSpansCarryRowCounts(t *testing.T) {
	e := tracedEngine(t, 80)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, job, err := e.ExecuteStream(ctx, "SELECT STREAM productId, units FROM Orders WHERE units > 25")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for job.MetricsSnapshot().Counters["messages-processed"] < 80 {
		if time.Now().After(deadline) {
			t.Fatal("job never processed the workload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	job.Stop()

	stages := map[string]bool{}
	var filterRows []int64
	for _, td := range job.Main.RecentTraces() {
		for _, s := range td.Spans {
			stages[s.Stage] = true
			if s.Stage == "operator.filter" {
				filterRows = append(filterRows, s.Rows)
			}
		}
	}
	for _, want := range []string{"produce", "poll", "process", "operator.filter"} {
		if !stages[want] {
			t.Fatalf("no %q span in recent traces; have %v", want, stages)
		}
	}
	multi := false
	for _, r := range filterRows {
		if r < 1 {
			t.Errorf("operator.filter span with row count %d, want >= 1 (the sampled row itself)", r)
		}
		if r > 1 {
			multi = true
		}
	}
	if !multi {
		t.Errorf("no operator.filter span covered more than one row (%v) — blocks were not batched", filterRows)
	}
}

func TestExplainAnalyze(t *testing.T) {
	e, _ := testEngine(t, 2, 300)
	out, err := e.ExplainAnalyze(context.Background(), "SELECT STREAM * FROM Orders WHERE units > 50", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Filter", "messages processed", "stage", "p95(us)", "filter"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	// The observed tuple counts come from live operator metrics: the filter
	// stage must report non-zero output for this predicate.
	if !strings.Contains(out, "300 messages processed") {
		t.Errorf("EXPLAIN ANALYZE did not drain the backlog:\n%s", out)
	}

	if _, err := e.ExplainAnalyze(context.Background(), "SELECT * FROM Orders", time.Second); err == nil {
		t.Fatal("EXPLAIN ANALYZE on a bounded query should error")
	}
}
