package executor

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/workload"
	"samzasql/internal/zk"
)

// equivCase is one query shape the vectorized batch path must execute with
// results identical to the per-message scalar path. wantRows computes the
// expected output count from the deterministic Orders replay so every run
// can wait for completion instead of guessing at idle timeouts.
type equivCase struct {
	name     string
	query    string
	wantRows func(orders [][]any) int
}

var equivCases = []equivCase{
	{
		name:  "filter",
		query: "SELECT STREAM * FROM Orders WHERE units > 50",
		wantRows: func(orders [][]any) int {
			n := 0
			for _, r := range orders {
				if r[3].(int64) > 50 {
					n++
				}
			}
			return n
		},
	},
	{
		name:     "project",
		query:    "SELECT STREAM rowtime, productId, units FROM Orders",
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name:  "computed-scalar",
		query: "SELECT STREAM productId, units * 2 + 1 FROM Orders WHERE units > 10",
		wantRows: func(orders [][]any) int {
			n := 0
			for _, r := range orders {
				if r[3].(int64) > 10 {
					n++
				}
			}
			return n
		},
	},
	{
		name: "window",
		query: `SELECT STREAM rowtime, orderId, productId, units,
		  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '10' SECOND PRECEDING) s
		FROM Orders`,
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	// Window plans whose deque crosses chunk boundaries (the sliding-window
	// operator packs 64 contributions per stored chunk): an unpartitioned
	// ROWS frame holding 63, 64, 65 and 192 rows, MIN/MAX rebuilt by scanning
	// three chunks, and two analytic calls with different partitioning.
	{
		name:     "window-rows-63",
		query:    `SELECT STREAM orderId, SUM(units) OVER (ORDER BY rowtime ROWS 62 PRECEDING) s FROM Orders`,
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name:     "window-rows-64",
		query:    `SELECT STREAM orderId, SUM(units) OVER (ORDER BY rowtime ROWS 63 PRECEDING) s FROM Orders`,
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name:     "window-rows-65",
		query:    `SELECT STREAM orderId, SUM(units) OVER (ORDER BY rowtime ROWS 64 PRECEDING) s FROM Orders`,
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name:     "window-rows-192",
		query:    `SELECT STREAM orderId, SUM(units) OVER (ORDER BY rowtime ROWS 191 PRECEDING) s FROM Orders`,
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name: "window-minmax-rebuild",
		query: `SELECT STREAM orderId,
		  MIN(units) OVER (ORDER BY rowtime ROWS 191 PRECEDING) lo,
		  MAX(units) OVER (ORDER BY rowtime RANGE INTERVAL '1' SECOND PRECEDING) hi
		FROM Orders`,
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name: "window-two-calls",
		query: `SELECT STREAM orderId,
		  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '2' SECOND PRECEDING) perProduct,
		  COUNT(*) OVER (ORDER BY rowtime ROWS 64 PRECEDING) recent
		FROM Orders`,
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name: "join",
		query: `SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId,
		  Orders.units, Products.supplierId
		FROM Orders JOIN Products ON Orders.productId = Products.productId`,
		// Every order matches exactly one product.
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name:  "aggregate-grouped",
		query: "SELECT STREAM productId, COUNT(*), SUM(units) FROM Orders GROUP BY productId",
		// Early-results policy: every input tuple emits its group's row.
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name: "aggregate-tumble",
		query: `SELECT STREAM START(rowtime), END(rowtime), COUNT(*), SUM(units)
		FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND)`,
		// Simulate the operator's watermark protocol over the replay: each
		// tuple opens its window (end = next 1s boundary after rowtime) when
		// that end is still ahead of the watermark, then advancing the
		// watermark to the tuple's rowtime closes every window it passed.
		// Windows still open at end of input never emit in streaming mode.
		wantRows: func(orders [][]any) int {
			const w = int64(1000)
			var wm int64
			open := map[int64]bool{}
			n := 0
			for _, r := range orders {
				ts := r[0].(int64)
				if e := (ts/w + 1) * w; e > wm {
					open[e] = true
				}
				if ts > wm {
					for end := range open {
						if end <= ts {
							n++
							delete(open, end)
						}
					}
					wm = ts
				}
			}
			return n
		},
	},
}

// runWithBatchSize executes the query as a streaming job with the given
// delivery granularity and returns the complete output topic contents once
// the expected row count has landed (plus a short grace window so trailing
// duplicates would be caught), together with the folded changelog state.
func runWithBatchSize(t *testing.T, query string, partitions int32, orders, batchSize, want int) ([]kafka.Message, []string) {
	t.Helper()
	e, _ := testEngine(t, partitions, orders)
	return runOnEngine(t, e, query, batchSize, want)
}

// runOnEngine is runWithBatchSize over a pre-built engine (scenarios with
// their own catalog and data, e.g. the repartitioned Clicks join). The job
// is stopped before the changelog digest is taken, so buffered state writes
// have flushed.
func runOnEngine(t *testing.T, e *Engine, query string, batchSize, want int) ([]kafka.Message, []string) {
	t.Helper()
	e.BatchSize = batchSize
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, rj, err := e.ExecuteStream(ctx, query)
	if err != nil {
		t.Fatalf("batch=%d: %v", batchSize, err)
	}
	defer rj.Stop()
	waitForCount(t, 15*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, want, fmt.Sprintf("batch=%d output", batchSize))
	time.Sleep(50 * time.Millisecond)
	out := drainNew(t, e.Broker, p.OutputTopic)
	if len(out) != want {
		t.Fatalf("batch=%d: %d output rows, want %d (duplicates or stragglers)", batchSize, len(out), want)
	}
	rj.Stop()
	return out, changelogDigest(t, e.Broker)
}

// changelogDigest folds every changelog topic last-write-wins per (topic,
// partition, key) — an empty value is a tombstone — so two runs that leave
// identical durable state produce identical digests no matter how many
// intermediate versions each wrote. The scalar path writes state once per
// tuple and the block path once per key per block; equality here proves the
// batched write-back converges to the same store contents a replay would
// restore.
func changelogDigest(t *testing.T, b *kafka.Broker) []string {
	t.Helper()
	state := map[string]string{}
	for _, topic := range b.Topics() {
		if !strings.Contains(topic, "-changelog") {
			continue
		}
		nParts, err := b.Partitions(topic)
		if err != nil {
			t.Fatal(err)
		}
		for part := int32(0); part < nParts; part++ {
			tp := kafka.TopicPartition{Topic: topic, Partition: part}
			hwm, err := b.HighWatermark(tp)
			if err != nil {
				t.Fatal(err)
			}
			off, err := b.StartOffset(tp)
			if err != nil {
				t.Fatal(err)
			}
			for off < hwm {
				msgs, wait, err := b.Fetch(tp, off, 512)
				if err != nil {
					t.Fatal(err)
				}
				if wait != nil {
					break
				}
				for _, m := range msgs {
					id := fmt.Sprintf("%s p%d k=%x", topic, part, m.Key)
					if len(m.Value) == 0 {
						delete(state, id)
					} else {
						state[id] = fmt.Sprintf("%s v=%x", id, m.Value)
					}
				}
				off = msgs[len(msgs)-1].Offset + 1
			}
		}
	}
	out := make([]string, 0, len(state))
	for _, v := range state {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// digest renders each output message — partition, offset, key, value bytes
// and timestamp — so runs can be compared exactly: equal sorted digests mean
// identical per-partition sequences, offsets included.
func digest(msgs []kafka.Message) []string {
	out := make([]string, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, fmt.Sprintf("p%d@%d k=%x ts=%d v=%x", m.Partition, m.Offset, m.Key, m.Timestamp, m.Value))
	}
	sort.Strings(out)
	return out
}

func diffDigests(t *testing.T, label string, ref, got []string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d rows vs scalar's %d", label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: output diverges from scalar path at sorted row %d:\n  scalar: %s\n  batch:  %s", label, i, ref[i], got[i])
		}
	}
}

// TestBatchScalarEquivalence replays every query shape through the scalar
// reference path (BatchSize = -1) and a spread of block sizes — 1, a prime
// that leaves a partial final batch, the default 256, and two seeded random
// sizes — asserting byte-identical outputs, offsets and timestamps. With a
// single input partition the task processes a deterministic sequence, so
// the comparison is exact, not just multiset equality.
func TestBatchScalarEquivalence(t *testing.T) {
	const orders = 457 // not divisible by any tested batch size > 1
	rng := rand.New(rand.NewSource(0x5eed))
	sizes := []int{1, 7, 256, 2 + rng.Intn(96), 2 + rng.Intn(96)}
	replayed := replayOrders(t, orders)
	for _, c := range equivCases {
		t.Run(c.name, func(t *testing.T) {
			want := c.wantRows(replayed)
			refOut, refState := runWithBatchSize(t, c.query, 1, orders, samza.ScalarBatch, want)
			ref := digest(refOut)
			for _, bs := range sizes {
				gotOut, gotState := runWithBatchSize(t, c.query, 1, orders, bs, want)
				diffDigests(t, fmt.Sprintf("%s batch=%d", c.name, bs), ref, digest(gotOut))
				diffDigests(t, fmt.Sprintf("%s batch=%d state", c.name, bs), refState, gotState)
			}
		})
	}
}

// TestBatchScalarEquivalenceRepartition covers the re-keying stage's batched
// path plus the stream-relation join fed by the intermediate topic: the
// Clicks scenario is published keyed by userId but joins on productId, so
// every run routes through RepartitionTask. With a single partition the
// whole dataflow is a deterministic sequence, so outputs, offsets and
// changelog state must match the scalar reference byte for byte.
func TestBatchScalarEquivalenceRepartition(t *testing.T) {
	const clicks = 300
	run := func(batchSize int) ([]kafka.Message, []string) {
		e := clicksEngine(t, 1)
		produceClicks(t, e, clicks)
		return runOnEngine(t, e, clicksJoin, batchSize, clicks)
	}
	refOut, refState := run(samza.ScalarBatch)
	ref := digest(refOut)
	for _, bs := range []int{1, 7, 256} {
		gotOut, gotState := run(bs)
		diffDigests(t, fmt.Sprintf("repartition batch=%d", bs), ref, digest(gotOut))
		diffDigests(t, fmt.Sprintf("repartition batch=%d state", bs), refState, gotState)
	}
}

// TestBatchScalarEquivalenceMultiPartition re-checks the filter and
// computed-projection kernels with several input partitions. Task
// interleaving makes cross-partition output order nondeterministic, so the
// comparison drops offsets and matches the (key, value) multiset instead.
func TestBatchScalarEquivalenceMultiPartition(t *testing.T) {
	const orders = 311
	replayed := replayOrders(t, orders)
	for _, c := range equivCases[:3] {
		t.Run(c.name, func(t *testing.T) {
			want := c.wantRows(replayed)
			values := func(msgs []kafka.Message) []string {
				out := make([]string, 0, len(msgs))
				for _, m := range msgs {
					out = append(out, fmt.Sprintf("k=%x v=%x", m.Key, m.Value))
				}
				sort.Strings(out)
				return out
			}
			refOut, _ := runWithBatchSize(t, c.query, 3, orders, samza.ScalarBatch, want)
			ref := values(refOut)
			for _, bs := range []int{1, 13, 256} {
				gotOut, _ := runWithBatchSize(t, c.query, 3, orders, bs, want)
				diffDigests(t, fmt.Sprintf("%s batch=%d", c.name, bs), ref, values(gotOut))
			}
		})
	}
}

// nullBatchCollector extends the alloc-benchmark collector with the batched
// sink so the block path binds SendBatch instead of per-row Send.
type nullBatchCollector struct {
	nullCollector
	batches int
	rows    int
}

func (c *nullBatchCollector) SendBatch(stream string, msgs []kafka.Message) error {
	c.batches++
	c.rows += len(msgs)
	return nil
}

// setupBatchFilterTask mirrors setupFilterTask but binds a BatchCollector
// and pre-encodes a whole block of Orders envelopes.
func setupBatchFilterTask(tb testing.TB, n int) (*Task, *nullBatchCollector, []samza.IncomingMessageEnvelope) {
	tb.Helper()
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		tb.Fatal(err)
	}
	zkStore := zk.NewStore()
	const queryPath = "/samzasql/queries/bench-filter-block"
	if err := zkStore.CreateRecursive(queryPath, []byte("SELECT STREAM * FROM Orders WHERE units > 50")); err != nil {
		tb.Fatal(err)
	}
	coll := &nullBatchCollector{}
	ctx := &samza.TaskContext{
		Task:      samza.TaskNameFor(0),
		Partition: 0,
		Metrics:   metrics.NewRegistry(),
		Config: map[string]string{
			"samzasql.zk.query.path": queryPath,
			"samzasql.output.topic":  "bench-out",
			"samzasql.fastpath":      "true",
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

// TestFilterBlockZeroAllocs pins the vectorized promise: once the scratch
// buffers are warm (AllocsPerRun runs the body once before measuring), the
// identity-filter kernel processes a whole block — decode-sparse, evaluate,
// forward — without a single heap allocation, i.e. 0 allocs per message.
func TestFilterBlockZeroAllocs(t *testing.T) {
	const block = 64
	task, coll, envs := setupBatchFilterTask(t, block)
	allocs := testing.AllocsPerRun(500, func() {
		if err := task.ProcessBatch(envs, coll, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("block path: %.1f allocs per %d-message block, want 0", allocs, block)
	}
	if coll.batches == 0 || coll.rows == 0 {
		t.Fatalf("block path never reached the batch collector (batches=%d rows=%d)", coll.batches, coll.rows)
	}
}

// BenchmarkFilterBlockProcess measures the per-block cost of the fastpath
// filter kernel through Task.ProcessBatch, excluding broker I/O; divide by
// the block size for the per-message cost comparable to
// BenchmarkFilterMessageProcess.
func BenchmarkFilterBlockProcess(b *testing.B) {
	const block = 256
	task, coll, envs := setupBatchFilterTask(b, block)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := task.ProcessBatch(envs, coll, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
