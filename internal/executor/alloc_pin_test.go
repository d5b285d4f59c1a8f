package executor

import (
	"fmt"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/monitor"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/workload"
	"samzasql/internal/zk"
)

// nullCollector counts sends without touching a broker, so the pins and
// benchmarks below measure only the task's own machinery.
type nullCollector struct{ batches, rows int }

func (c *nullCollector) Send(samza.OutgoingMessageEnvelope) error {
	c.rows++
	return nil
}

func (c *nullCollector) SendBatch(_ string, msgs []kafka.Message) error {
	c.batches++
	c.rows += len(msgs)
	return nil
}

// filterQuery is the repository benchmark's filter workload.
const filterQuery = "SELECT STREAM rowtime, orderId, productId, units FROM Orders WHERE units > 50"

// setupFilterTask initializes a SamzaSQL filter task on the default block
// path exactly as a container would — collector bound in TaskContext before
// Init — and returns n pre-encoded Orders envelopes, some passing the
// predicate and some not.
func setupFilterTask(tb testing.TB, n int) (*Task, *nullCollector, []samza.IncomingMessageEnvelope) {
	tb.Helper()
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		tb.Fatal(err)
	}
	zkStore := zk.NewStore()
	const queryPath = "/samzasql/queries/bench-filter"
	if err := zkStore.CreateRecursive(queryPath, []byte(filterQuery)); err != nil {
		tb.Fatal(err)
	}
	coll := &nullCollector{}
	ctx := &samza.TaskContext{
		Task:      samza.TaskNameFor(0),
		Partition: 0,
		Metrics:   metrics.NewRegistry(),
		Config: map[string]string{
			"samzasql.zk.query.path": queryPath,
			"samzasql.output.topic":  "bench-out",
		},
		Collector: coll,
	}
	task := NewTask(cat, zkStore, true)
	if err := task.Init(ctx); err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	envs := make([]samza.IncomingMessageEnvelope, n)
	for i := range envs {
		row, key, value, err := gen.Next()
		if err != nil {
			tb.Fatal(err)
		}
		envs[i] = samza.IncomingMessageEnvelope{
			Stream: "orders", Partition: 0, Offset: int64(i),
			Key: key, Value: value, Timestamp: row[0].(int64),
		}
	}
	return task, coll, envs
}

// TestFilterBatchZeroAllocs pins the allocation cost of the default message
// path on the benchmark's filter query: once the scratch buffers are warm
// (AllocsPerRun runs the body once before measuring), a block — typed sparse
// decode, the `units > 50` kernel, the column permutation, typed encode into
// the reused output slab — costs no allocation at all, whether the block
// holds one row or 256, with or without a live cluster monitor standing by,
// its tailer parked on the metrics topic (its eval interval is pushed out of
// the measurement window, because AllocsPerRun counts process-global
// mallocs).
func TestFilterBatchZeroAllocs(t *testing.T) {
	configs := []struct {
		name  string
		setup func(t *testing.T)
	}{
		{"plain", func(*testing.T) {}},
		{"with-monitor", func(t *testing.T) {
			mon, err := monitor.Start(monitor.Config{Broker: kafka.NewBroker(), EvalInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mon.Stop)
		}},
	}
	const rows = 256
	for _, cfg := range configs {
		for _, block := range []int{1, rows} {
			t.Run(fmt.Sprintf("%s/block=%d", cfg.name, block), func(t *testing.T) {
				cfg.setup(t)
				task, coll, envs := setupFilterTask(t, rows)
				// One-row blocks walk the envelopes, so rows that pass the
				// predicate and rows that fail it are both measured.
				next := 0
				allocs := testing.AllocsPerRun(2*rows, func() {
					if err := task.ProcessBatch(envs[next:next+block], task.bound, nil, 0); err != nil {
						t.Fatal(err)
					}
					next = (next + block) % rows
				})
				t.Logf("%.3f allocs per %d-row block", allocs, block)
				if allocs > 0 {
					t.Errorf("%.2f allocs per row (%.1f per %d-row block), want none", allocs/float64(block), allocs, block)
				}
				if coll.batches == 0 || coll.rows == 0 {
					t.Fatalf("the block path never reached the collector (batches=%d rows=%d)", coll.batches, coll.rows)
				}
			})
		}
	}
}

// BenchmarkFilterBatchProcess measures the per-block cost of the default
// path on the benchmark's filter query through Task.ProcessBatch, excluding
// broker I/O, in one-row and 256-row blocks.
func BenchmarkFilterBatchProcess(b *testing.B) {
	for _, block := range []int{1, 256} {
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			task, coll, envs := setupFilterTask(b, block)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := task.ProcessBatch(envs, coll, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/row")
		})
	}
}
