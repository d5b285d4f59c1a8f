package executor

import (
	"context"
	"strings"
	"testing"
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/workload"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"
)

// testEngine builds a full stack: broker, 2-node cluster, catalog with the
// paper's schema, and preloaded Orders/Products/Packets data.
func testEngine(t *testing.T, partitions int32, orders int) (*Engine, *workload.OrdersGen) {
	t.Helper()
	broker := kafka.NewBroker()
	cluster := yarn.NewCluster()
	cluster.AddNode("n1", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cluster.AddNode("n2", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.ProduceOrders(broker, "orders", partitions, orders, workload.DefaultOrdersConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.ProduceProducts(broker, "products", partitions, 100); err != nil {
		t.Fatal(err)
	}
	if err := workload.ProducePackets(broker, "packets-r1", "packets-r2", partitions, 200, workload.DefaultPacketsConfig()); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, broker, samza.NewJobRunner(broker, cluster), zk.NewStore())
	return e, gen
}

// replayOrders regenerates the deterministic order rows.
func replayOrders(t *testing.T, count int) [][]any {
	t.Helper()
	g := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	rows := make([][]any, count)
	for i := range rows {
		row, _, _, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = row
	}
	return rows
}

func TestBoundedFilter(t *testing.T) {
	e, _ := testEngine(t, 4, 500)
	rows, err := e.ExecuteBounded("SELECT * FROM Orders WHERE units > 50")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range replayOrders(t, 500) {
		if r[3].(int64) > 50 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("filter returned %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r[3].(int64) <= 50 {
			t.Fatalf("row %v fails predicate", r)
		}
	}
}

func TestBoundedProject(t *testing.T) {
	e, _ := testEngine(t, 4, 200)
	rows, err := e.ExecuteBounded("SELECT rowtime, productId, units FROM Orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("%d rows, want 200", len(rows))
	}
	for _, r := range rows {
		if len(r) != 3 {
			t.Fatalf("row arity %d", len(r))
		}
	}
}

func TestBoundedExpressionProjection(t *testing.T) {
	e, _ := testEngine(t, 1, 50)
	rows, err := e.ExecuteBounded("SELECT units * 2 + 1 AS x, CASE WHEN units > 50 THEN 'big' ELSE 'small' END FROM Orders")
	if err != nil {
		t.Fatal(err)
	}
	orders := replayOrders(t, 50)
	// Single partition: broker preserves production order within it... but
	// bounded mode sorts by timestamp, which is monotone, so order holds.
	for i, r := range rows {
		units := orders[i][3].(int64)
		if r[0].(int64) != units*2+1 {
			t.Fatalf("row %d: x=%v want %d", i, r[0], units*2+1)
		}
		wantLabel := "small"
		if units > 50 {
			wantLabel = "big"
		}
		if r[1].(string) != wantLabel {
			t.Fatalf("row %d: label %v", i, r[1])
		}
	}
}

func TestBoundedGroupedAggregate(t *testing.T) {
	e, _ := testEngine(t, 4, 1000)
	rows, err := e.ExecuteBounded(`
		SELECT productId, COUNT(*), SUM(units) FROM Orders GROUP BY productId`)
	if err != nil {
		t.Fatal(err)
	}
	wantCount := map[int64]int64{}
	wantSum := map[int64]int64{}
	for _, r := range replayOrders(t, 1000) {
		pid := r[1].(int64)
		wantCount[pid]++
		wantSum[pid] += r[3].(int64)
	}
	if len(rows) != len(wantCount) {
		t.Fatalf("%d groups, want %d", len(rows), len(wantCount))
	}
	for _, r := range rows {
		pid := r[0].(int64)
		if r[1].(int64) != wantCount[pid] || r[2].(int64) != wantSum[pid] {
			t.Fatalf("group %d: got (%v,%v), want (%d,%d)", pid, r[1], r[2], wantCount[pid], wantSum[pid])
		}
	}
}

func TestBoundedTumbleWindow(t *testing.T) {
	e, _ := testEngine(t, 4, 2000)
	rows, err := e.ExecuteBounded(`
		SELECT START(rowtime), END(rowtime), COUNT(*) FROM Orders
		GROUP BY TUMBLE(rowtime, INTERVAL '5' SECOND)`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{} // window end -> count
	const w = 5000
	for _, r := range replayOrders(t, 2000) {
		ts := r[0].(int64)
		end := (ts/w)*w + w
		if end == ts {
			end += w
		}
		// Window covers [end-w, end); boundary math must match the operator:
		// first boundary strictly greater than ts.
		want[(ts/w+1)*w]++
	}
	// Orders tick every 10ms so 2000 records span 20s => ~5 windows.
	if len(rows) != len(want) {
		t.Fatalf("%d windows, want %d (%v)", len(rows), len(want), rows)
	}
	total := int64(0)
	for _, r := range rows {
		start, end, count := r[0].(int64), r[1].(int64), r[2].(int64)
		if end-start != w {
			t.Fatalf("window [%d,%d) has wrong width", start, end)
		}
		if want[end] != count {
			t.Fatalf("window ending %d: count %d, want %d", end, count, want[end])
		}
		total += count
	}
	if total != 2000 {
		t.Fatalf("window counts sum to %d, want 2000", total)
	}
}

func TestBoundedHopWindow(t *testing.T) {
	e, _ := testEngine(t, 1, 1000)
	// Emit every 2s over the last 4s: each record lands in 2 windows.
	rows, err := e.ExecuteBounded(`
		SELECT START(rowtime), END(rowtime), COUNT(*) FROM Orders
		GROUP BY HOP(rowtime, INTERVAL '2' SECOND, INTERVAL '4' SECOND)`)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rows {
		if r[1].(int64)-r[0].(int64) != 4000 {
			t.Fatalf("window width %d", r[1].(int64)-r[0].(int64))
		}
		total += r[2].(int64)
	}
	// 1000 records × 2 windows each (modulo edge windows).
	if total < 1900 || total > 2000*2 {
		t.Fatalf("hop total %d out of expected range", total)
	}
}

func TestBoundedHavingSubquery(t *testing.T) {
	e, _ := testEngine(t, 4, 1000)
	// Listing 3's subquery form.
	rows, err := e.ExecuteBounded(`
		SELECT rowtime, productId FROM (
		  SELECT FLOOR(rowtime TO HOUR) AS rowtime, productId,
		    COUNT(*) AS c, SUM(units) AS su
		  FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId)
		WHERE c > 2 OR su > 10`)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ h, p int64 }
	cnt := map[key]int64{}
	sum := map[key]int64{}
	for _, r := range replayOrders(t, 1000) {
		k := key{(r[0].(int64) / 3600000) * 3600000, r[1].(int64)}
		cnt[k]++
		sum[k] += r[3].(int64)
	}
	want := 0
	for k := range cnt {
		if cnt[k] > 2 || sum[k] > 10 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
}

func TestBoundedStreamRelationJoin(t *testing.T) {
	e, _ := testEngine(t, 4, 300)
	rows, err := e.ExecuteBounded(`
		SELECT Orders.rowtime, Orders.orderId, Orders.productId, Orders.units,
		  Products.supplierId
		FROM Orders JOIN Products ON Orders.productId = Products.productId`)
	if err != nil {
		t.Fatal(err)
	}
	// Every order matches exactly one product.
	if len(rows) != 300 {
		t.Fatalf("%d joined rows, want 300", len(rows))
	}
	for _, r := range rows {
		pid := r[2].(int64)
		if r[4].(int64) != pid%10 {
			t.Fatalf("order with product %d joined to supplier %v", pid, r[4])
		}
	}
}

func TestBoundedSlidingWindow(t *testing.T) {
	e, _ := testEngine(t, 1, 400)
	rows, err := e.ExecuteBounded(`
		SELECT rowtime, productId, units,
		  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '1' SECOND PRECEDING) unitsLastSecond
		FROM Orders`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 400 {
		t.Fatalf("%d rows, want 400", len(rows))
	}
	// Reference computation.
	orders := replayOrders(t, 400)
	type entry struct{ ts, units int64 }
	hist := map[int64][]entry{}
	wantAt := make([]int64, len(orders))
	for i, r := range orders {
		pid := r[1].(int64)
		ts := r[0].(int64)
		u := r[3].(int64)
		hist[pid] = append(hist[pid], entry{ts, u})
		var sum int64
		for _, h := range hist[pid] {
			if h.ts >= ts-1000 {
				sum += h.units
			}
		}
		wantAt[i] = sum
	}
	for i, r := range rows {
		if r[3].(int64) != wantAt[i] {
			t.Fatalf("row %d: window sum %v, want %d", i, r[3], wantAt[i])
		}
	}
}

func TestBoundedStreamStreamJoin(t *testing.T) {
	e, _ := testEngine(t, 4, 10)
	rows, err := e.ExecuteBounded(`
		SELECT GREATEST(PacketsR1.rowtime, PacketsR2.rowtime) AS rowtime,
		  PacketsR1.sourcetime, PacketsR1.packetId,
		  PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel
		FROM PacketsR1 JOIN PacketsR2 ON
		  PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND
		    AND PacketsR2.rowtime + INTERVAL '2' SECOND
		  AND PacketsR1.packetId = PacketsR2.packetId`)
	if err != nil {
		t.Fatal(err)
	}
	// Travel times are uniform in (0, 1500] < 2s, so every packet joins.
	if len(rows) != 200 {
		t.Fatalf("%d joined packets, want 200", len(rows))
	}
	for _, r := range rows {
		travel := r[3].(int64)
		if travel <= 0 || travel > 2000 {
			t.Fatalf("timeToTravel %d out of window", travel)
		}
	}
}

func TestBoundedDistinct(t *testing.T) {
	e, _ := testEngine(t, 1, 500)
	rows, err := e.ExecuteBounded("SELECT DISTINCT productId FROM Orders")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		pid := r[0].(int64)
		if seen[pid] {
			t.Fatalf("duplicate product %d", pid)
		}
		seen[pid] = true
	}
}

func TestExplain(t *testing.T) {
	e, _ := testEngine(t, 1, 1)
	out, err := e.Explain("SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 25")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Project", "Filter", "Scan(Orders, stream)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestCreateViewThenQuery(t *testing.T) {
	e, _ := testEngine(t, 4, 600)
	_, err := e.CreateView(`
		CREATE VIEW ProductTotals (productId, c, su) AS
		SELECT productId, COUNT(*), SUM(units) FROM Orders GROUP BY productId`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.ExecuteBounded("SELECT productId, su FROM ProductTotals WHERE c > 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("view query returned nothing")
	}
}

// drainNew reads all messages currently in a topic.
func drainNew(t *testing.T, b *kafka.Broker, topic string) []kafka.Record {
	t.Helper()
	n, err := b.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	var out []kafka.Record
	for p := int32(0); p < n; p++ {
		tp := kafka.TopicPartition{Topic: topic, Partition: p}
		hwm, _ := b.HighWatermark(tp)
		off, _ := b.StartOffset(tp)
		for off < hwm {
			msgs, wait, err := b.Fetch(tp, off, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if wait != nil {
				break
			}
			out = append(out, msgs...)
			off = msgs[len(msgs)-1].Offset + 1
		}
	}
	return out
}

func waitForCount(t *testing.T, timeout time.Duration, fn func() int, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if fn() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (have %d, want %d)", what, fn(), want)
}

func TestStreamingFilterJob(t *testing.T) {
	e, _ := testEngine(t, 4, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, rj, err := e.ExecuteStream(ctx, "SELECT STREAM * FROM Orders WHERE units > 50")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range replayOrders(t, 1000) {
		if r[3].(int64) > 50 {
			want++
		}
	}
	waitForCount(t, 10*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, want, "filtered output")
	rj.Stop()

	out := drainNew(t, e.Broker, p.OutputTopic)
	if len(out) != want {
		t.Fatalf("%d output messages, want %d", len(out), want)
	}
	// Output must decode with the derived schema and satisfy the predicate.
	codec := p.Program.OutputCodec
	for _, m := range out[:10] {
		row, err := codec.DecodeRow(m.Value, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[3].(int64) <= 50 {
			t.Fatalf("output row %v fails predicate", row)
		}
	}
}

func TestStreamingJoinJob(t *testing.T) {
	e, _ := testEngine(t, 4, 500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, rj, err := e.ExecuteStream(ctx, `
		SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId,
		  Orders.units, Products.supplierId
		FROM Orders JOIN Products ON Orders.productId = Products.productId`)
	if err != nil {
		t.Fatal(err)
	}
	waitForCount(t, 10*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, 500, "joined output")
	rj.Stop()

	out := drainNew(t, e.Broker, p.OutputTopic)
	if len(out) != 500 {
		t.Fatalf("%d joined messages, want 500", len(out))
	}
	codec := p.Program.OutputCodec
	for _, m := range out {
		row, err := codec.DecodeRow(m.Value, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[4].(int64) != row[2].(int64)%10 {
			t.Fatalf("join mismatch: %v", row)
		}
	}
}

func TestStreamingLateProducerJob(t *testing.T) {
	// Messages produced after the job starts must flow through.
	e, _ := testEngine(t, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, rj, err := e.ExecuteStream(ctx, "SELECT STREAM rowtime, productId, units FROM Orders")
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	for i := 0; i < 100; i++ {
		row, key, value, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Broker.Produce("orders", kafka.Message{
			Partition: -1, Key: key, Value: value, Timestamp: row[0].(int64),
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitForCount(t, 10*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, 100, "projected output")
	rj.Stop()
}

func TestSubmitNonStreamingRejected(t *testing.T) {
	e, _ := testEngine(t, 1, 1)
	p, err := e.Prepare("SELECT * FROM Orders")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), p); err == nil {
		t.Fatal("bounded query submitted as streaming job")
	}
}

// TestNegativeBatchSizeRejected: the block size sets granularity only; the
// value that used to select the per-tuple path is an error now.
func TestNegativeBatchSizeRejected(t *testing.T) {
	e, _ := testEngine(t, 1, 1)
	e.BatchSize = -1
	_, _, err := e.ExecuteStream(context.Background(), "SELECT STREAM * FROM Orders")
	if err == nil || !strings.Contains(err.Error(), "negative batch size") {
		t.Fatalf("BatchSize = -1 submitted: %v", err)
	}
}

func TestInsertIntoStreamJob(t *testing.T) {
	e, _ := testEngine(t, 4, 300)
	if err := e.Broker.EnsureTopic("big-orders", kafka.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, rj, err := e.ExecuteStream(ctx, "INSERT INTO \"big-orders\" SELECT STREAM * FROM Orders WHERE units > 90")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range replayOrders(t, 300) {
		if r[3].(int64) > 90 {
			want++
		}
	}
	waitForCount(t, 10*time.Second, func() int {
		return len(drainNew(t, e.Broker, "big-orders"))
	}, want, "insert target")
	rj.Stop()
}

var _ = avro.Long // keep avro import for schema assertions above
