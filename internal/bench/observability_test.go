package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"samzasql/internal/samza"
)

// TestFigureQueryPublishesSnapshots runs the Figure 5a filter query with the
// metrics snapshot reporter enabled and consumes the __metrics stream back,
// asserting the published telemetry carries per-task latency percentiles,
// per-operator counters and a consumer-lag gauge per input partition.
func TestFigureQueryPublishesSnapshots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 2000
	cfg.Partitions = 4
	cfg.MetricsInterval = 5 * time.Millisecond
	e, err := newEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.loadOrders(cfg); err != nil {
		t.Fatal(err)
	}
	e.engine.MetricsInterval = cfg.MetricsInterval

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, rj, err := e.engine.ExecuteStream(ctx, Queries["filter"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := awaitProcessed(rj, int64(cfg.Messages), time.Now(), time.Minute); err != nil {
		t.Fatal(err)
	}
	// Let one interval tick land before the final flush.
	time.Sleep(15 * time.Millisecond)
	rj.Stop()

	tailer, err := samza.NewTailer[samza.MetricsSnapshotMessage](e.broker, samza.DefaultMetricsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Close()
	tctx, tcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer tcancel()
	var snaps []*samza.MetricsSnapshotMessage
	for len(snaps) < 2 {
		batch, err := tailer.Poll(tctx, 256)
		if err != nil {
			t.Fatalf("tailer poll after %d snapshots: %v", len(snaps), err)
		}
		snaps = append(snaps, batch...)
	}

	last := snaps[len(snaps)-1].Metrics
	// Per-task process-latency percentiles for every task of the job.
	for p := int32(0); p < cfg.Partitions; p++ {
		name := "task.Partition-" + string(rune('0'+p)) + ".process-ns"
		h, ok := last.Histograms[name]
		if !ok {
			t.Fatalf("final snapshot missing %s; histograms: %v", name, keysOf(last.Histograms))
		}
		if h.Count == 0 || h.P50 <= 0 || h.P99 < h.P50 || h.Max < h.P99 {
			t.Fatalf("%s percentiles implausible: %+v", name, h)
		}
	}
	// Per-operator counters from the instrumented router stages.
	var operatorCounters int
	for name := range last.Counters {
		if strings.HasPrefix(name, "operator.") && strings.HasSuffix(name, ".out") {
			operatorCounters++
		}
	}
	if operatorCounters == 0 {
		t.Fatalf("final snapshot has no operator.*.out counters: %v", keysOf(last.Counters))
	}
	if last.Counters["serde.bytes-in"] == 0 {
		t.Fatal("final snapshot shows no serde bytes in")
	}
	// One consumer-lag gauge per input partition, caught up at job end.
	for p := int32(0); p < cfg.Partitions; p++ {
		name := "kafka.lag.orders." + string(rune('0'+p))
		lag, ok := last.Gauges[name]
		if !ok {
			t.Fatalf("final snapshot missing %s; gauges: %v", name, keysOf(last.Gauges))
		}
		if lag != 0 {
			t.Fatalf("%s = %d after full drain, want 0", name, lag)
		}
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
