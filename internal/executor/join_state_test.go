package executor

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/types"
	"samzasql/internal/workload"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"
)

const relationJoin = `SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId,
  Orders.units, Products.name, Products.supplierId
FROM Orders JOIN Products ON Orders.productId = Products.productId`

// Relation changes the join scenarios append to the Products changelog after
// the initial load: product 5 is overwritten, product 3 is deleted, product 9
// is deleted and written again, and a key the relation never held is deleted.
const (
	overwrittenProduct = 5
	deletedProduct     = 3
	reinsertedProduct  = 9
)

// updateProducts appends the scenario's relation changes to the products
// topic: an overwrite and tombstones, the way a compacted table topic carries
// them.
func updateProducts(t *testing.T, b *kafka.Broker) {
	t.Helper()
	codec := avro.MustCodec(workload.ProductsSchema())
	put := func(id int, name string, supplier int64) kafka.Message {
		value, err := codec.EncodeRow([]any{int64(id), name, supplier})
		if err != nil {
			t.Fatal(err)
		}
		return kafka.Message{Partition: -1, Key: []byte(fmt.Sprint(id)), Value: value}
	}
	tombstone := func(id int) kafka.Message {
		return kafka.Message{Partition: -1, Key: []byte(fmt.Sprint(id))}
	}
	for _, m := range []kafka.Message{
		put(overwrittenProduct, "product-5-v2", 77),
		tombstone(deletedProduct),
		tombstone(reinsertedProduct),
		put(reinsertedProduct, "product-9-again", 99),
		tombstone(123456),
	} {
		if _, err := b.Produce("products", m); err != nil {
			t.Fatal(err)
		}
	}
}

// wantRelationJoin is the reference output of relationJoin over the replayed
// orders after updateProducts, keyed by orderId: (name, supplierId) of every
// order whose product survives.
func wantRelationJoin(orders [][]any) map[int64][2]any {
	want := map[int64][2]any{}
	for _, o := range orders {
		pid := o[1].(int64)
		name, supplier := fmt.Sprintf("product-%d", pid), pid%10
		switch pid {
		case deletedProduct:
			continue
		case overwrittenProduct:
			name, supplier = "product-5-v2", 77
		case reinsertedProduct:
			name, supplier = "product-9-again", 99
		}
		want[o[2].(int64)] = [2]any{name, supplier}
	}
	return want
}

func checkRelationJoinRows(t *testing.T, label string, rows [][]any, want map[int64][2]any) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("%s: %d joined rows, want %d", label, len(rows), len(want))
	}
	for _, r := range rows {
		if r[2].(int64) == deletedProduct {
			t.Fatalf("%s: order %v joined the deleted product", label, r)
		}
		w, ok := want[r[1].(int64)]
		if !ok || r[4] != w[0] || r[5] != w[1] {
			t.Fatalf("%s: row %v, want name/supplier %v", label, r, w)
		}
	}
}

// TestRelationTombstoneBounded is the poison pill as reported: a tombstone
// on the relation's topic used to reach the Avro decoder and fail the whole
// query with "scan decode (products): avro: ... truncated payload".
func TestRelationTombstoneBounded(t *testing.T) {
	const orders = 400
	e, _ := testEngine(t, 2, orders)
	updateProducts(t, e.Broker)
	rows, err := e.ExecuteBounded(relationJoin)
	if err != nil {
		t.Fatal(err)
	}
	checkRelationJoinRows(t, "bounded", rows, wantRelationJoin(replayOrders(t, orders)))
}

// TestRelationTombstoneSkippedWhenMessageKeyIsUnknown runs the join over a
// Products table whose catalog entry does not say what its messages are keyed
// by: a tombstone's key then identifies no state row, so the three on the
// topic are skipped and counted — the deleted product keeps joining — and the
// query still runs.
func TestRelationTombstoneSkippedWhenMessageKeyIsUnknown(t *testing.T) {
	const orders = 200
	e, _ := testEngine(t, 1, orders)
	updateProducts(t, e.Broker)
	products, err := e.Catalog.Resolve("Products")
	if err != nil {
		t.Fatal(err)
	}
	unkeyed := *products
	unkeyed.PartitionKeyCol = ""
	if err := e.Catalog.Define(&unkeyed); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(`SELECT Orders.orderId, Products.supplierId
	FROM Orders JOIN Products ON Orders.productId = Products.productId`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.RunBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != orders {
		t.Fatalf("%d joined rows, want all %d: no tombstone could be applied", len(rows), orders)
	}

	// RunBounded opens the program over a registry of its own; route the
	// relation through a fresh program over one the test can read.
	p, err = e.Prepare(p.Stmt.String())
	if err != nil {
		t.Fatal(err)
	}
	reg, store := metrics.NewRegistry(), kv.NewStore()
	err = p.Program.Router.Open(&operators.OpContext{
		Store:   func(string) kv.Store { return store },
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := e.drainTopic("products")
	if err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		if err := p.Program.RouteBatch(msgs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if skipped := reg.Counter(operators.TombstonesSkippedMetric).Value(); skipped != 3 {
		t.Fatalf("%d tombstones skipped, want the 3 on the topic", skipped)
	}
}

// joinGoldens holds the per-tuple reference results (see golden) of the join
// scenarios below: the relation-update join over 457 orders, the staged
// stream-stream join over 150 quotes a side, and the crash-and-restore join
// over 1200 orders, whose out digest is over the decoded rows by orderId.
var joinGoldens = map[string]golden{
	"relation-updates":  {453, "bd3a76d24f63d80d", "cbf29ce484222325"},
	"tombstone-restore": {1189, "f89be954cd359831", "cbf29ce484222325"},
	"stream-stream":     {1500, "c66a878db8729fdd", "39e2214452f87a3d"},
	// The relationShapes, recorded at commit 53dd5ae, before the
	// stream-relation join read keys and relation rows without boxing.
	"residual-conjunct": {437, "d1bd176890073a7d", "cbf29ce484222325"},
	"null-keys":         {371, "2e4910e0ee804c1f", "cbf29ce484222325"},
	"varchar-key":       {416, "0593dc0c904082ec", "cbf29ce484222325"},
	"computed-key":      {457, "09a653e147964430", "cbf29ce484222325"},
}

// relationShapes are the stream-relation join shapes the relation-update
// scenario does not reach, over the 457 orders and 100 products of
// testEngine: an ON condition with a conjunct besides the key equality; NULL
// join keys on both sides (the stream key is NULL for orders of at most 20
// units, the relation key for product 7, and a NULL never matches a NULL); a
// VARCHAR key; and a stream key computed per row. Catalog objects named in
// unkeyed are redefined without a partition key column, so a computed or
// non-key join column plans without repartitioning.
var relationShapes = []struct {
	name    string
	unkeyed []string
	query   string
	keep    func(order []any) bool
}{
	{
		name: "residual-conjunct",
		query: `SELECT STREAM Orders.rowtime, Orders.orderId, Orders.units, Products.name, Products.supplierId
		FROM Orders JOIN Products ON Orders.productId = Products.productId AND Orders.units > Products.supplierId`,
		keep: func(o []any) bool { return o[3].(int64) > o[1].(int64)%10 },
	},
	{
		name:    "null-keys",
		unkeyed: []string{"Products"},
		query: `SELECT STREAM O.rowtime, O.orderId, O.pid, Products.name, Products.supplierId
		FROM (SELECT STREAM rowtime, orderId, CASE WHEN units > 20 THEN productId ELSE NULL END AS pid FROM Orders) AS O
		JOIN Products ON O.pid = CASE WHEN Products.productId <> 7 THEN Products.productId ELSE NULL END`,
		keep: func(o []any) bool { return o[3].(int64) > 20 && o[1].(int64) != 7 },
	},
	{
		name:    "varchar-key",
		unkeyed: []string{"Products"},
		query: `SELECT STREAM O.rowtime, O.orderId, O.pname, Products.productId, Products.supplierId
		FROM (SELECT STREAM rowtime, orderId, CASE WHEN units > 10 THEN 'product-' || productId ELSE NULL END AS pname FROM Orders) AS O
		JOIN Products ON O.pname = Products.name`,
		keep: func(o []any) bool { return o[3].(int64) > 10 },
	},
	{
		name:    "computed-key",
		unkeyed: []string{"Orders"},
		query: `SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, Products.name, Products.supplierId
		FROM Orders JOIN Products ON Orders.productId + 0 = Products.productId`,
		keep: func([]any) bool { return true },
	},
}

// TestBlockSizeEquivalenceRelationShapes runs every relationShapes query at
// every block size: outputs and folded changelog state byte-identical to the
// recorded reference, and the row count the plain-Go predicate expects.
func TestBlockSizeEquivalenceRelationShapes(t *testing.T) {
	const orders = 457
	replayed := replayOrders(t, orders)
	for _, c := range relationShapes {
		t.Run(c.name, func(t *testing.T) {
			var first []string
			for _, bs := range blockSizes(0x5a9e) {
				e, _ := testEngine(t, 1, orders)
				for _, name := range c.unkeyed {
					obj, err := e.Catalog.Resolve(name)
					if err != nil {
						t.Fatal(err)
					}
					unkeyed := *obj
					unkeyed.PartitionKeyCol = ""
					if err := e.Catalog.Define(&unkeyed); err != nil {
						t.Fatal(err)
					}
				}
				out, state := runOnEngine(t, e, c.query, bs, countOrders(c.keep)(replayed))
				checkGolden(t, fmt.Sprintf("%s batch=%d", c.name, bs), joinGoldens[c.name], first, digest(out), state)
				first = digest(out)
			}
		})
	}
}

// TestBlockSizeEquivalenceRelationUpdates replays the stream-relation join
// over a relation changelog that overwrites a row, deletes one, and deletes
// and re-inserts another, at every block size: outputs must be
// byte-identical to the recorded per-tuple reference — and match the plain-Go
// expectation — and the folded changelog state must be identical too.
func TestBlockSizeEquivalenceRelationUpdates(t *testing.T) {
	const orders = 457
	want := wantRelationJoin(replayOrders(t, orders))
	codec := avro.MustCodec(avro.Record("Output",
		avro.F("rowtime", avro.Long().AsNullable()), avro.F("orderId", avro.Long().AsNullable()),
		avro.F("productId", avro.Long().AsNullable()), avro.F("units", avro.Long().AsNullable()),
		avro.F("name", avro.String().AsNullable()), avro.F("supplierId", avro.Long().AsNullable())))
	var first []string
	for _, bs := range blockSizes(0x7ab1e) {
		label := fmt.Sprintf("batch=%d", bs)
		e, _ := testEngine(t, 1, orders)
		updateProducts(t, e.Broker)
		out, state := runOnEngine(t, e, relationJoin, bs, len(want))
		if first == nil {
			rows := make([][]any, len(out))
			for i, m := range out {
				row, err := codec.DecodeRow(m.Value, nil)
				if err != nil {
					t.Fatal(err)
				}
				rows[i] = row
			}
			checkRelationJoinRows(t, label, rows, want)
		}
		checkGolden(t, label, joinGoldens["relation-updates"], first, digest(out), state)
		first = digest(out)
	}
}

// TestRelationTombstoneSurvivesRestore crashes the join task mid-stream, so
// the restarted attempt rebuilds its relation table by re-reading the
// relation topic from its start while its stream resumes from the last
// checkpoint, in one-row and 64-row blocks: the deleted product still joins
// to nothing and every other order is joined exactly once, as in the
// recorded per-tuple reference. A fresh start of the stopped job, its
// checkpoint past the relation's head, rebuilds the table the same way:
// orders sent then join the overwritten and the re-inserted product with
// their latest rows, and the deleted product with nothing.
func TestRelationTombstoneSurvivesRestore(t *testing.T) {
	const orders = 1200
	want := wantRelationJoin(replayOrders(t, orders))
	for _, tc := range []struct {
		name      string
		batchSize int
	}{
		{"block-1", 1},
		{"block-64", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := testEngine(t, 1, orders)
			updateProducts(t, e.Broker)
			p, err := e.Prepare(relationJoin)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Broker.EnsureTopic(p.OutputTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
				t.Fatal(err)
			}
			if err := e.ZK.CreateRecursive(zkQueryPath(p.JobName), []byte(p.Stmt.String())); err != nil {
				t.Fatal(err)
			}
			var processed atomic.Int64
			var crashed atomic.Bool
			job := &samza.JobSpec{
				Name: p.JobName,
				Inputs: []samza.StreamSpec{
					{Topic: "orders"},
					{Topic: "products", Bootstrap: true},
				},
				Containers:  1,
				Stores:      p.Program.Stores,
				CommitEvery: 200,
				MaxRestarts: 2,
				BatchSize:   tc.batchSize,
				Config: map[string]string{
					"samzasql.zk.query.path": zkQueryPath(p.JobName),
					"samzasql.output.topic":  p.OutputTopic,
				},
				TaskFactory: func() samza.StreamTask {
					// Count the relation's 105 bootstrap messages too: the
					// crash lands well inside the stream, after commits.
					return &crashingTask{Task: NewTask(e.Catalog, e.ZK, true), crashAfter: 800, processed: &processed, crashed: &crashed}
				},
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rj, err := e.Runner.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			defer rj.Stop()

			byOrder := map[int64][]any{}
			deadline := time.Now().Add(15 * time.Second)
			for len(byOrder) < len(want) && time.Now().Before(deadline) {
				for _, m := range drainNew(t, e.Broker, p.OutputTopic) {
					row, err := p.Program.OutputCodec.DecodeRow(m.Value, nil)
					if err != nil {
						t.Fatal(err)
					}
					byOrder[row[1].(int64)] = row
				}
				time.Sleep(10 * time.Millisecond)
			}
			if !crashed.Load() {
				t.Fatal("failure was never injected")
			}
			rows := make([][]any, 0, len(byOrder))
			for _, r := range byOrder {
				rows = append(rows, r)
			}
			checkRelationJoinRows(t, "after restart", rows, want)
			rj.Stop()
			sort.Slice(rows, func(i, j int) bool { return rows[i][1].(int64) < rows[j][1].(int64) })
			lines := make([]string, len(rows))
			for i, r := range rows {
				lines[i] = fmt.Sprint(r)
			}
			checkGolden(t, "after restart", joinGoldens["tombstone-restore"], nil, lines, changelogDigest(t, e.Broker))

			// A fresh start over the checkpoint the stop wrote.
			cps, err := samza.NewCheckpointManager(e.Broker, job)
			if err != nil {
				t.Fatal(err)
			}
			cp, ok, err := cps.Read(samza.TaskNameFor(0))
			if err != nil {
				t.Fatal(err)
			}
			head, err := e.Broker.HighWatermark(kafka.TopicPartition{Topic: "products", Partition: 0})
			if err != nil {
				t.Fatal(err)
			}
			if !ok || cp.Offsets["products"] != head {
				t.Fatalf("checkpoint %+v (found %v), want products at its head %d", cp, ok, head)
			}
			job.TaskFactory = func() samza.StreamTask { return NewTask(e.Catalog, e.ZK, true) }
			rj, err = e.Runner.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			defer rj.Stop()
			// One order per product, the deleted one first: once the last
			// has joined, the first has been processed.
			const firstLate = 1_000_000
			products := []int64{deletedProduct, overwrittenProduct, reinsertedProduct, 4}
			orderCodec := avro.MustCodec(workload.OrdersSchema())
			for i, pid := range products {
				ts := int64(2_000_000_000_000) + int64(i)
				value, err := orderCodec.EncodeRow([]any{ts, pid, int64(firstLate + i), int64(1), ""})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Broker.Produce("orders", kafka.Message{Partition: 0, Key: []byte(fmt.Sprint(pid)), Value: value, Timestamp: ts}); err != nil {
					t.Fatal(err)
				}
			}
			late := map[int64][]any{}
			deadline = time.Now().Add(15 * time.Second)
			for len(late) < len(products)-1 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				for _, m := range drainNew(t, e.Broker, p.OutputTopic) {
					row, err := p.Program.OutputCodec.DecodeRow(m.Value, nil)
					if err != nil {
						t.Fatal(err)
					}
					if id := row[1].(int64); id >= firstLate {
						late[id] = row
					}
				}
			}
			wantLate := map[int64][2]any{
				firstLate + 1: {"product-5-v2", int64(77)},
				firstLate + 2: {"product-9-again", int64(99)},
				firstLate + 3: {"product-4", int64(4)},
			}
			if len(late) != len(wantLate) {
				t.Fatalf("after a fresh start joined %v, want the orders of products 5, 9 and 4 only", late)
			}
			for id, w := range wantLate {
				if r, ok := late[id]; !ok || r[4] != w[0] || r[5] != w[1] {
					t.Fatalf("after a fresh start order %d joined %v, want name/supplier %v", id, r, w)
				}
			}
		})
	}
}

// quotesEngine builds a one-partition cluster whose catalog has two streams
// with VARCHAR and DOUBLE columns, for the stream-stream join scenario.
func quotesEngine(t *testing.T) *Engine {
	t.Helper()
	broker := kafka.NewBroker()
	cluster := yarn.NewCluster()
	cluster.AddNode("n1", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cat := catalog.New()
	for _, name := range []string{"Bids", "Asks"} {
		err := cat.Define(&catalog.Object{
			Kind: catalog.Stream, Name: name, Topic: quotesTopic(name),
			TimestampCol: "rowtime", PartitionKeyCol: "item",
			Row: types.NewRowType(
				types.Column{Name: "rowtime", Type: types.Timestamp},
				types.Column{Name: "item", Type: types.Varchar},
				types.Column{Name: "price", Type: types.Double},
				types.Column{Name: "note", Type: types.Varchar},
				types.Column{Name: "quoteId", Type: types.Bigint},
			),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := broker.EnsureTopic(quotesTopic(name), kafka.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(cat, broker, samza.NewJobRunner(broker, cluster), zk.NewStore())
}

func quotesTopic(stream string) string {
	if stream == "Bids" {
		return "bids"
	}
	return "asks"
}

// produceQuotes writes n quotes to a side's topic: items cycle over a few
// symbols, prices are non-integral doubles.
func produceQuotes(t *testing.T, e *Engine, stream string, n int, baseTs int64) {
	t.Helper()
	obj, err := e.Catalog.Resolve(stream)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := catalog.AvroSchemaFor(obj)
	if err != nil {
		t.Fatal(err)
	}
	codec := avro.MustCodec(schema)
	for i := 0; i < n; i++ {
		item := fmt.Sprintf("sym-%d", i%5)
		note := fmt.Sprintf("%s quote %d", stream, i)
		ts := baseTs + int64(i)*40
		value, err := codec.EncodeRow([]any{ts, item, 10.25 + float64(i)/8, note, int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Broker.Produce(obj.Topic, kafka.Message{Partition: 0, Key: []byte(item), Value: value, Timestamp: ts}); err != nil {
			t.Fatal(err)
		}
	}
}

const quotesJoin = `SELECT STREAM Asks.rowtime, Bids.item, Bids.price AS bid, Asks.price AS ask, Asks.note, Asks.quoteId
FROM Bids JOIN Asks ON
  Bids.rowtime BETWEEN Asks.rowtime - INTERVAL '1' SECOND AND Asks.rowtime + INTERVAL '1' SECOND
  AND Bids.item = Asks.item`

// TestBlockSizeEquivalenceStreamStreamJoin runs a windowed stream-stream
// join whose stored rows carry VARCHAR and DOUBLE columns (and NULLs in the
// columns the query never reads, such as Bids.note), at every block size.
// The sides are
// fed in two stages — all bids, then, once the job has consumed them, all
// asks — so every run sees one arrival order and the comparison is exact:
// outputs and folded changelog state byte-identical to the recorded
// per-tuple reference.
func TestBlockSizeEquivalenceStreamStreamJoin(t *testing.T) {
	const (
		quotes = 150
		baseTs = int64(1_600_000_000_000)
	)
	run := func(batchSize int) ([]kafka.Record, []string) {
		e := quotesEngine(t)
		e.BatchSize = batchSize
		produceQuotes(t, e, "Bids", quotes, baseTs)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p, rj, err := e.ExecuteStream(ctx, quotesJoin)
		if err != nil {
			t.Fatalf("batch=%d: %v", batchSize, err)
		}
		defer rj.Stop()
		processed := func() int { return int(rj.MetricsSnapshot().Counters["messages-processed"]) }
		waitForCount(t, 15*time.Second, processed, quotes, fmt.Sprintf("batch=%d bids processed", batchSize))
		produceQuotes(t, e, "Asks", quotes, baseTs)
		waitForCount(t, 15*time.Second, processed, 2*quotes, fmt.Sprintf("batch=%d asks processed", batchSize))
		rj.Stop()
		return drainNew(t, e.Broker, p.OutputTopic), changelogDigest(t, e.Broker)
	}
	// Each ask matches the bids of its item within a second either way: the
	// same quote index ±25 steps of 40 ms, every fifth of them.
	var first []string
	for _, bs := range blockSizes(0xa5c5) {
		out, state := run(bs)
		if len(out) < quotes || len(state) == 0 {
			t.Fatalf("batch=%d joined %d rows over %d state rows; the scenario matches nothing", bs, len(out), len(state))
		}
		checkGolden(t, fmt.Sprintf("stream-stream batch=%d", bs), joinGoldens["stream-stream"], first, digest(out), state)
		first = digest(out)
	}
}
