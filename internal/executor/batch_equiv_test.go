package executor

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// equivCase is one query shape every block size must execute with results
// identical to the recorded per-tuple reference (equivGoldens). wantRows
// computes the expected output count from the deterministic Orders replay so
// every run can wait for completion instead of guessing at idle timeouts.
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
	// Where a kind-typed rewrite of filter/project silently diverges:
	// int↔float comparison, NULL operands, int64 wraparound, strings,
	// booleans and projections mixing bare columns with computed ones.
	{
		name:     "int-gt-float",
		query:    "SELECT STREAM * FROM Orders WHERE units > 50.5",
		wantRows: countOrders(func(r []any) bool { return r[3].(int64) > 50 }),
	},
	{
		name:     "int-eq-float",
		query:    "SELECT STREAM rowtime, orderId, units FROM Orders WHERE units = 50.0",
		wantRows: countOrders(func(r []any) bool { return r[3].(int64) == 50 }),
	},
	{
		name: "double-vs-bigint",
		query: `SELECT STREAM orderId, half, productId
		FROM (SELECT STREAM orderId, productId, units * 0.5 AS half FROM Orders)
		WHERE half > productId`,
		wantRows: countOrders(func(r []any) bool { return float64(r[3].(int64))*0.5 > float64(r[1].(int64)) }),
	},
	{
		name: "null-aggregate-filtered",
		query: `SELECT STREAM productId, m
		FROM (SELECT STREAM productId, MAX(CASE WHEN units > 90 THEN units ELSE NULL END) AS m
		  FROM Orders GROUP BY productId)
		WHERE m > 95`,
		wantRows: func(orders [][]any) int {
			best := map[int64]int64{}
			n := 0
			for _, r := range orders {
				p, u := r[1].(int64), r[3].(int64)
				if u > 90 && u > best[p] {
					best[p] = u
				}
				if best[p] > 95 {
					n++
				}
			}
			return n
		},
	},
	{
		name:     "case-null-vs-const",
		query:    "SELECT STREAM orderId, units FROM Orders WHERE CASE WHEN units > 30 THEN units ELSE NULL END < 60",
		wantRows: countOrders(func(r []any) bool { u := r[3].(int64); return u > 30 && u < 60 }),
	},
	{
		name:     "int64-wraparound",
		query:    "SELECT STREAM orderId, orderId * 4611686018427387904 FROM Orders",
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name: "string-eq",
		query: `SELECT STREAM orderId, c
		FROM (SELECT STREAM orderId, SUBSTRING(pad, 1, 1) AS c FROM Orders)
		WHERE c = 'a'`,
		wantRows: countOrders(func(r []any) bool { return r[4].(string)[0] == 'a' }),
	},
	{
		name:     "like",
		query:    "SELECT STREAM orderId, pad FROM Orders WHERE pad LIKE '%x_'",
		wantRows: countOrders(func(r []any) bool { p := r[4].(string); return len(p) >= 2 && p[len(p)-2] == 'x' }),
	},
	{
		name:     "bool-project",
		query:    "SELECT STREAM orderId, units > 50 AS big, units = 7 OR productId < 3 AS odd FROM Orders",
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name:     "mixed-project",
		query:    "SELECT STREAM units, orderId + 1 AS next, rowtime, productId * 2 AS p2, pad FROM Orders WHERE productId < 50",
		wantRows: countOrders(func(r []any) bool { return r[1].(int64) < 50 }),
	},
	// The bare identity projection and a conjunction over two columns.
	{
		name:     "select-star",
		query:    "SELECT STREAM * FROM Orders",
		wantRows: func(orders [][]any) int { return len(orders) },
	},
	{
		name:     "conjunction",
		query:    "SELECT STREAM rowtime, units FROM Orders WHERE units > 25 AND productId < 50",
		wantRows: countOrders(func(r []any) bool { return r[3].(int64) > 25 && r[1].(int64) < 50 }),
	},
}

// countOrders counts the replayed orders a predicate keeps.
func countOrders(keep func(r []any) bool) func(orders [][]any) int {
	return func(orders [][]any) int {
		n := 0
		for _, r := range orders {
			if keep(r) {
				n++
			}
		}
		return n
	}
}

// golden is what the per-tuple reference path — `-batch-size -1` at commit
// fc0bc3c, the last one to have that path — produced for one
// scenario: the output row count, the FNV-64a of the sorted output digest
// lines and of the folded changelog digest lines. Inputs and seeds are fixed,
// so every block size has to reproduce them byte for byte.
type golden struct {
	rows       int
	out, state string
}

// equivGoldens holds the reference results of equivCases (457 orders, one
// partition) and of the repartitioned Clicks join (300 clicks).
var equivGoldens = map[string]golden{
	"filter":                {238, "0f30403ab5597739", "cbf29ce484222325"},
	"project":               {457, "06547dbf09a49b0a", "cbf29ce484222325"},
	"computed-scalar":       {416, "22a198a31c59d7e4", "cbf29ce484222325"},
	"window":                {457, "b97d95ffe4721a1b", "98727d48195ad0b5"},
	"window-rows-63":        {457, "6f15d745b4dc179f", "d79d043f9f94a890"},
	"window-rows-64":        {457, "d2c7c81707271c6f", "018d247fce14d261"},
	"window-rows-65":        {457, "3537ea36c5e845dc", "c3ada0c08e80e57f"},
	"window-rows-192":       {457, "bee3b2b3f4e18500", "c1792fc9ee165b29"},
	"window-minmax-rebuild": {457, "0b0c9e913d55dfa0", "f544615d2e304d41"},
	"window-two-calls":      {457, "833bd80768ff8165", "7d8897c96909dc13"},
	"join":                  {457, "fb39b8601f4e201a", "10169a52a451150d"},
	"aggregate-grouped":     {457, "4b91e26bf106cede", "0d70641488ab93e4"},
	"aggregate-tumble":      {4, "2db1d297666e2245", "c51666c75235797f"},
	"repartition":           {300, "65aacda6e575d822", "10169a52a451150d"},
	// Recorded from the boxed ([][]any) block path at commit 1aae1b5, before
	// the column vectors became kind-typed.
	"int-gt-float":            {238, "0f30403ab5597739", "cbf29ce484222325"},
	"int-eq-float":            {5, "d073b11f9f2ef1ba", "cbf29ce484222325"},
	"double-vs-bigint":        {114, "4ebd830f73c4b9cc", "cbf29ce484222325"},
	"null-aggregate-filtered": {64, "964d1882f54bd94a", "028b8688f4be200b"},
	"case-null-vs-const":      {133, "83ce395083771484", "cbf29ce484222325"},
	"int64-wraparound":        {457, "02fe61245be3be06", "cbf29ce484222325"},
	"string-eq":               {14, "61fa0dff73764e0f", "cbf29ce484222325"},
	"like":                    {4, "500fe3e77843ea9d", "cbf29ce484222325"},
	"bool-project":            {457, "cd4cbe8ac17dfc5e", "cbf29ce484222325"},
	"mixed-project":           {241, "91a77fa7f8aae36a", "cbf29ce484222325"},
	// Recorded from the block path at commit 6aedf34, before the fused
	// kernel was deleted.
	"select-star": {457, "f8cf92bf0931f0ec", "cbf29ce484222325"},
	"conjunction": {187, "f7ffc07268e342b4", "cbf29ce484222325"},
}

// multiPartitionGoldens holds the (key, value) multisets the first three
// equivCases produce over 311 orders in three partitions.
var multiPartitionGoldens = map[string]golden{
	"filter":          {161, "6143360565f594c0", "cbf29ce484222325"},
	"project":         {311, "3d05c9c9c4286222", "cbf29ce484222325"},
	"computed-scalar": {282, "4467180baa0be8ac", "cbf29ce484222325"},
}

// hashLines folds digest lines into one FNV-64a.
func hashLines(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// blockSizes is the spread every equivalence test runs: one-row blocks (the
// per-tuple case), a prime that leaves a partial final block, the default
// 256, and a seeded random size.
func blockSizes(seed int64) []int {
	return []int{1, 7, 256, 2 + rand.New(rand.NewSource(seed)).Intn(96)}
}

// checkGolden requires a run's output and folded changelog state to be the
// recorded reference's; first, when non-nil, is an earlier run of the same
// scenario, compared line by line so a divergence names its row.
func checkGolden(t *testing.T, label string, want golden, first, out, state []string) {
	t.Helper()
	if first != nil {
		diffDigests(t, label, first, out)
	}
	if got := (golden{len(out), hashLines(out), hashLines(state)}); got != want {
		t.Fatalf("%s: got %+v, want the per-tuple reference's %+v", label, got, want)
	}
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
// intermediate versions each wrote. A block writes a key's state once however
// many of its rows touched the key; equality here proves the batched
// write-back converges to the store contents per-tuple writes leave, which is
// what a replay would restore.
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
		t.Fatalf("%s: %d rows vs the first run's %d", label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: output diverges from the first run at sorted row %d:\n  first: %s\n  this:  %s", label, i, ref[i], got[i])
		}
	}
}

// TestBlockSizeEquivalence replays every query shape at a spread of block
// sizes, asserting outputs, offsets, timestamps and folded changelog state
// byte-identical to the recorded per-tuple reference. With a single input
// partition the task processes a deterministic sequence, so the comparison is
// exact, not just multiset equality.
func TestBlockSizeEquivalence(t *testing.T) {
	const orders = 457 // not divisible by any tested block size > 1
	replayed := replayOrders(t, orders)
	for _, c := range equivCases {
		t.Run(c.name, func(t *testing.T) {
			var first []string
			for _, bs := range blockSizes(0x5eed) {
				out, state := runWithBatchSize(t, c.query, 1, orders, bs, c.wantRows(replayed))
				checkGolden(t, fmt.Sprintf("%s batch=%d", c.name, bs), equivGoldens[c.name], first, digest(out), state)
				first = digest(out)
			}
		})
	}
}

// TestBlockSizeEquivalenceRepartition covers the re-keying stage plus the
// stream-relation join fed by the intermediate topic: the Clicks scenario is
// published keyed by userId but joins on productId, so every run routes
// through RepartitionTask. With a single partition the whole dataflow is a
// deterministic sequence, so outputs, offsets and changelog state must match
// the recorded reference byte for byte.
func TestBlockSizeEquivalenceRepartition(t *testing.T) {
	const clicks = 300
	var first []string
	for _, bs := range blockSizes(0xc11c) {
		e := clicksEngine(t, 1)
		produceClicks(t, e, clicks)
		out, state := runOnEngine(t, e, clicksJoin, bs, clicks)
		checkGolden(t, fmt.Sprintf("repartition batch=%d", bs), equivGoldens["repartition"], first, digest(out), state)
		first = digest(out)
	}
}

// TestBlockSizeEquivalenceMultiPartition re-checks the filter and
// computed-projection kernels with several input partitions. Task
// interleaving makes cross-partition output order nondeterministic, so the
// comparison drops offsets and matches the (key, value) multiset instead.
func TestBlockSizeEquivalenceMultiPartition(t *testing.T) {
	const orders = 311
	replayed := replayOrders(t, orders)
	for _, c := range equivCases[:3] {
		t.Run(c.name, func(t *testing.T) {
			values := func(msgs []kafka.Message) []string {
				out := make([]string, 0, len(msgs))
				for _, m := range msgs {
					out = append(out, fmt.Sprintf("k=%x v=%x", m.Key, m.Value))
				}
				sort.Strings(out)
				return out
			}
			var first []string
			for _, bs := range []int{1, 13, 256} {
				out, state := runWithBatchSize(t, c.query, 3, orders, bs, c.wantRows(replayed))
				checkGolden(t, fmt.Sprintf("%s batch=%d", c.name, bs), multiPartitionGoldens[c.name], first, values(out), state)
				first = values(out)
			}
		})
	}
}
