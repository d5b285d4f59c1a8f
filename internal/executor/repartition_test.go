package executor

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/physical"
	"samzasql/internal/sql/types"
	"samzasql/internal/workload"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"
)

// clicksCatalog builds a scenario whose join is NOT co-partitioned: a
// Clicks stream published keyed by userId, joined to Orders (keyed by
// productId) on productId. The Clicks side must repartition (§7 future
// work 1).
func clicksEngine(t testing.TB, partitions int32) *Engine {
	t.Helper()
	broker := kafka.NewBroker()
	cluster := yarn.NewCluster()
	cluster.AddNode("n1", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cluster.AddNode("n2", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		t.Fatal(err)
	}
	err := cat.Define(&catalog.Object{
		Kind: catalog.Stream, Name: "Clicks", Topic: "clicks",
		TimestampCol: "rowtime", PartitionKeyCol: "userId",
		Row: types.NewRowType(
			types.Column{Name: "rowtime", Type: types.Timestamp},
			types.Column{Name: "userId", Type: types.Bigint},
			types.Column{Name: "productId", Type: types.Bigint},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.EnsureTopic("clicks", kafka.TopicConfig{Partitions: partitions}); err != nil {
		t.Fatal(err)
	}
	if err := workload.ProduceProducts(broker, "products", partitions, 100); err != nil {
		t.Fatal(err)
	}
	return NewEngine(cat, broker, samza.NewJobRunner(broker, cluster), zk.NewStore())
}

func produceClicks(t *testing.T, e *Engine, count int) {
	t.Helper()
	codec := avro.MustCodec(avro.Record("Clicks",
		avro.F("rowtime", avro.Long()),
		avro.F("userId", avro.Long()),
		avro.F("productId", avro.Long()),
	))
	for i := 0; i < count; i++ {
		row := []any{int64(1_600_000_000_000 + i*10), int64(i % 7), int64(i % 100)}
		value, err := codec.EncodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		// Published keyed by userId — NOT by the join key.
		if _, err := e.Broker.Produce("clicks", kafka.Message{
			Partition: -1,
			Key:       []byte{byte('u'), byte(i % 7)},
			Value:     value,
			Timestamp: row[0].(int64),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

const clicksJoin = `
SELECT STREAM Clicks.rowtime, Clicks.userId, Clicks.productId,
  Products.supplierId
FROM Clicks JOIN Products ON Clicks.productId = Products.productId`

func TestRepartitionDetectedInPlan(t *testing.T) {
	e := clicksEngine(t, 4)
	p, err := e.Prepare(clicksJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bound.Root.Join.LeftRepartitionCol != "productId" {
		t.Fatalf("left repartition col %q", p.Bound.Root.Join.LeftRepartitionCol)
	}
	if got := len(p.Program.Repartitions); got != 1 {
		t.Fatalf("%d repartition stages", got)
	}
	spec := p.Program.Repartitions[0]
	if spec.SourceTopic != "clicks" || spec.KeyCol != "productId" {
		t.Fatalf("spec %+v", spec)
	}
	// The main job's scan reads the intermediate topic.
	found := false
	for _, in := range p.Program.Inputs {
		if in.Topic == spec.TargetTopic {
			found = true
		}
	}
	if !found {
		t.Fatalf("main job inputs %v do not include %q", p.Program.Inputs, spec.TargetTopic)
	}
	// EXPLAIN shows the repartitioned scan.
	plan, err := e.Explain(clicksJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "repartition by productId") {
		t.Fatalf("plan missing repartition marker:\n%s", plan)
	}
}

func TestCoPartitionedJoinSkipsRepartition(t *testing.T) {
	e := clicksEngine(t, 4)
	p, err := e.Prepare(`
		SELECT STREAM Orders.rowtime FROM Orders
		JOIN Products ON Orders.productId = Products.productId`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Program.Repartitions) != 0 {
		t.Fatalf("co-partitioned join planned %d repartitions", len(p.Program.Repartitions))
	}
}

func TestMisalignedRelationRejected(t *testing.T) {
	e := clicksEngine(t, 4)
	// Join ON a Products column that is not its changelog key.
	_, err := e.Prepare(`
		SELECT STREAM Orders.rowtime FROM Orders
		JOIN Products ON Orders.productId = Products.supplierId`)
	if err == nil || !strings.Contains(err.Error(), "changelog") {
		t.Fatalf("misaligned relation join: %v", err)
	}
}

func TestRepartitionedJoinEndToEnd(t *testing.T) {
	const clicks = 400
	e := clicksEngine(t, 4)
	produceClicks(t, e, clicks)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, job, err := e.ExecuteStream(ctx, clicksJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Repartitions) != 1 {
		t.Fatalf("%d repartition jobs started", len(job.Repartitions))
	}
	waitForCount(t, 15*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, clicks, "repartitioned join output")
	job.Stop()

	out := drainNew(t, e.Broker, p.OutputTopic)
	if len(out) != clicks {
		t.Fatalf("%d joined rows, want %d", len(out), clicks)
	}
	for _, m := range out {
		row, err := p.Program.OutputCodec.DecodeRow(m.Value, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[3].(int64) != row[2].(int64)%10 {
			t.Fatalf("join mismatch %v", row)
		}
	}
	// The intermediate topic is keyed by productId: within any partition,
	// every message carries keys that hash there.
	spec := p.Program.Repartitions[0]
	nParts, err := e.Broker.Partitions(spec.TargetTopic)
	if err != nil {
		t.Fatal(err)
	}
	for part := int32(0); part < nParts; part++ {
		tp := kafka.TopicPartition{Topic: spec.TargetTopic, Partition: part}
		hwm, _ := e.Broker.HighWatermark(tp)
		off := int64(0)
		for off < hwm {
			msgs, wait, err := e.Broker.Fetch(tp, off, 512)
			if err != nil {
				t.Fatal(err)
			}
			if wait != nil {
				break
			}
			for _, m := range msgs {
				if kafka.PartitionForKey(m.Key, nParts) != part {
					t.Fatalf("message keyed %q landed in partition %d", m.Key, part)
				}
			}
			off = msgs[len(msgs)-1].Offset + 1
		}
	}
}

// batchRecorder is a MessageCollector that keeps a copy of every batch sent.
type batchRecorder struct{ batches [][]kafka.Message }

func (r *batchRecorder) Send(samza.OutgoingMessageEnvelope) error { return nil }

func (r *batchRecorder) SendBatch(_ string, msgs []kafka.Message) error {
	r.batches = append(r.batches, append([]kafka.Message(nil), msgs...))
	return nil
}

// TestRepartitionBatchGrouping pins both shapes of the re-keying batch: with
// the target partition count known, one batch per destination partition in
// input order; unknown, a single unsplit batch left to the broker's key
// hash.
func TestRepartitionBatchGrouping(t *testing.T) {
	codec := avro.MustCodec(avro.Record("Clicks",
		avro.F("rowtime", avro.Long()), avro.F("userId", avro.Long()), avro.F("productId", avro.Long())))
	var envs []samza.IncomingMessageEnvelope
	for i := 0; i < 40; i++ {
		value, err := codec.EncodeRow([]any{int64(i), int64(i % 7), int64(i % 13)})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, samza.IncomingMessageEnvelope{Value: value, Timestamp: int64(i)})
	}
	spec := &physical.RepartitionSpec{TargetTopic: "out", KeyCol: "productId", Codec: codec}
	for _, parts := range []int32{0, 4} {
		task := &RepartitionTask{Spec: spec, Partitions: parts}
		for round := 0; round < 2; round++ { // the second reuses the groups
			rec := &batchRecorder{}
			if err := task.ProcessBatch(envs, rec, nil, 0); err != nil {
				t.Fatal(err)
			}
			seen := 0
			for _, b := range rec.batches {
				for j, m := range b {
					want := int32(-1)
					if parts > 0 {
						want = kafka.PartitionForKey(m.Key, parts)
					}
					if m.Partition != want || (j > 0 && m.Timestamp <= b[j-1].Timestamp) {
						t.Fatalf("partitions %d: message %+v in batch %v", parts, m, b)
					}
					if k := string(repartitionKey(m.Timestamp % 13)); string(m.Key) != k {
						t.Fatalf("partitions %d: key %q, want %q", parts, m.Key, k)
					}
					seen++
				}
			}
			if seen != len(envs) || (parts == 0 && len(rec.batches) != 1) || (parts > 0 && len(rec.batches) > int(parts)) {
				t.Fatalf("partitions %d: %d messages in %d batches", parts, seen, len(rec.batches))
			}
		}
	}
}

// repartitionKey is the key bytes of re-keying value v.
func repartitionKey(v any) []byte { return appendRepartitionKey(nil, v) }

// appendRepartitionKey appends the re-keying value v to dst as the bytes
// the broker hashes: the same text fmt.Sprintf("%v") produces, with the
// common scalar types formatted via strconv. It is the boxed key format
// the re-keying stage has always produced; the field walk must match it
// byte for byte, or partition assignment would move.
func appendRepartitionKey(dst []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case string:
		return append(dst, x...)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(dst, x)
	}
	return fmt.Appendf(dst, "%v", v)
}

// TestRepartitionBatchKeysMatchReadField keys a batch by a field of every
// kind the typed and the boxed key reads handle, NULLs included: each
// message's key is repartitionKey of what ReadField returns — the value a
// boxed per-message key read would format.
func TestRepartitionBatchKeysMatchReadField(t *testing.T) {
	codec := avro.MustCodec(avro.Record("Mixed",
		avro.F("l", avro.Long()), avro.F("s", avro.String()), avro.F("d", avro.Double()),
		avro.F("b", avro.Boolean()), avro.F("i", &avro.Schema{Kind: avro.KindInt}), avro.F("nl", avro.Long().AsNullable())))
	var envs []samza.IncomingMessageEnvelope
	for i := 0; i < 20; i++ {
		var nl any
		if i%3 != 0 {
			nl = int64(-i * 1000)
		}
		value, err := codec.EncodeRow([]any{int64(i * 7919), fmt.Sprintf("k-%d", i%5), float64(i) / 3, i%2 == 0, int32(i - 10), nl})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, samza.IncomingMessageEnvelope{Value: value, Timestamp: int64(i)})
	}
	for _, col := range []string{"l", "s", "d", "b", "i", "nl"} {
		task := &RepartitionTask{Spec: &physical.RepartitionSpec{TargetTopic: "out", KeyCol: col, Codec: codec}}
		rec := &batchRecorder{}
		if err := task.ProcessBatch(envs, rec, nil, 0); err != nil {
			t.Fatal(err)
		}
		for j, m := range rec.batches[0] {
			v, err := codec.ReadField(envs[j].Value, col)
			if err != nil {
				t.Fatal(err)
			}
			if want := repartitionKey(v); string(m.Key) != string(want) {
				t.Fatalf("key column %s, message %d: key %q, want %q", col, j, m.Key, want)
			}
		}
	}
	task := &RepartitionTask{Spec: &physical.RepartitionSpec{TargetTopic: "out", KeyCol: "missing", Codec: codec}}
	if err := task.ProcessBatch(envs, &batchRecorder{}, nil, 0); err == nil {
		t.Fatal("a key column the record lacks was accepted")
	}
}

// mixedCodec is a record of every key kind the re-keying walk formats,
// and mixedEnvs 20 messages of it, NULLs in the nullable long included.
func mixedEnvs(t *testing.T) (*avro.Codec, []samza.IncomingMessageEnvelope) {
	t.Helper()
	codec := avro.MustCodec(avro.Record("Mixed",
		avro.F("l", avro.Long()), avro.F("s", avro.String()), avro.F("d", avro.Double()),
		avro.F("b", avro.Boolean()), avro.F("i", &avro.Schema{Kind: avro.KindInt}), avro.F("nl", avro.Long().AsNullable())))
	var envs []samza.IncomingMessageEnvelope
	for i := 0; i < 20; i++ {
		var nl any
		if i%3 != 0 {
			nl = int64(-i * 1000)
		}
		value, err := codec.EncodeRow([]any{int64(i * 7919), fmt.Sprintf("k-%d", i%5), float64(i) / 3, i%2 == 0, int32(i - 10), nl})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, samza.IncomingMessageEnvelope{Value: value, Timestamp: int64(i)})
	}
	return codec, envs
}

// TestRepartitionProjectionMatchesReadField crosses every key kind with
// several kept sets — the key alone; the key and the timestamp column (l);
// all but the middle VARCHAR (s); all but the nullable column (nl) — on
// both batch shapes: every projected value decodes, under the codec of the
// kept fields, to ReadField of each kept source field, and every key is the
// text the whole-message stage keys by, in the partition it hashes to.
func TestRepartitionProjectionMatchesReadField(t *testing.T) {
	codec, envs := mixedEnvs(t)
	fields := codec.Schema().Fields
	sets := map[string]func(i int) bool{
		"key":        func(int) bool { return false },
		"key+ts":     func(i int) bool { return i == 0 },
		"all-but-s":  func(i int) bool { return fields[i].Name != "s" },
		"all-but-nl": func(i int) bool { return fields[i].Name != "nl" },
	}
	for _, col := range []string{"l", "s", "d", "b", "i", "nl"} {
		for name, in := range sets {
			keep := make([]bool, len(fields))
			for i, f := range fields {
				keep[i] = f.Name == col || in(i)
			}
			var kept []avro.Field
			for i, f := range fields {
				if keep[i] {
					kept = append(kept, f)
				}
			}
			projected := avro.MustCodec(avro.Record("Projected", kept...))
			for _, parts := range []int32{0, 4} {
				task := &RepartitionTask{Spec: &physical.RepartitionSpec{TargetTopic: "out", KeyCol: col, Codec: codec, Keep: keep}, Partitions: parts}
				rec := &batchRecorder{}
				if err := task.ProcessBatch(envs, rec, nil, 0); err != nil {
					t.Fatal(err)
				}
				seen := 0
				for _, b := range rec.batches {
					for _, m := range b {
						seen++
						src := envs[m.Timestamp].Value
						v, err := codec.ReadField(src, col)
						if err != nil {
							t.Fatal(err)
						}
						if want := repartitionKey(v); string(m.Key) != string(want) {
							t.Fatalf("key %s, keeping %s: key %q, want %q", col, name, m.Key, want)
						}
						if parts > 0 && m.Partition != kafka.PartitionForKey(m.Key, parts) {
							t.Fatalf("key %s, keeping %s: key %q in partition %d", col, name, m.Key, m.Partition)
						}
						row, err := projected.DecodeRow(m.Value, nil)
						if err != nil {
							t.Fatalf("key %s, keeping %s: projected value %x: %v", col, name, m.Value, err)
						}
						j := 0
						for i, f := range fields {
							if !keep[i] {
								continue
							}
							want, err := codec.ReadField(src, f.Name)
							if err != nil {
								t.Fatal(err)
							}
							if fmt.Sprint(row[j]) != fmt.Sprint(want) {
								t.Fatalf("key %s, keeping %s: field %s = %v, source %v", col, name, f.Name, row[j], want)
							}
							j++
						}
						if j != len(row) {
							t.Fatalf("key %s, keeping %s: %d projected fields, kept %d", col, name, len(row), j)
						}
					}
				}
				if seen != len(envs) {
					t.Fatalf("key %s, keeping %s: %d messages sent, want %d", col, name, seen, len(envs))
				}
			}
		}
	}
}

// wideClicksEngine is clicksEngine over a wider Clicks row, two VARCHARs
// among its columns, so a join can read a subset of them: rowtime, userId,
// page, productId, pad. optimize sets the engine's optimizer.
func wideClicksEngine(t *testing.T, optimize bool) *Engine {
	t.Helper()
	e := clicksEngine(t, 4)
	e.Optimize = optimize
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		t.Fatal(err)
	}
	if err := cat.Define(&catalog.Object{
		Kind: catalog.Stream, Name: "Clicks", Topic: "clicks",
		TimestampCol: "rowtime", PartitionKeyCol: "userId",
		Row: types.NewRowType(
			types.Column{Name: "rowtime", Type: types.Timestamp},
			types.Column{Name: "userId", Type: types.Bigint},
			types.Column{Name: "page", Type: types.Varchar},
			types.Column{Name: "productId", Type: types.Bigint},
			types.Column{Name: "pad", Type: types.Varchar},
		),
	}); err != nil {
		t.Fatal(err)
	}
	e.Catalog = cat
	codec := avro.MustCodec(avro.Record("Clicks",
		avro.F("rowtime", avro.Long()), avro.F("userId", avro.Long()), avro.F("page", avro.String()),
		avro.F("productId", avro.Long()), avro.F("pad", avro.String())))
	for i := 0; i < 300; i++ {
		value, err := codec.EncodeRow([]any{int64(1_600_000_000_000 + i*10), int64(i % 7), fmt.Sprintf("/page/%d", i%11), int64(i % 100), "padpadpad"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Broker.Produce("clicks", kafka.Message{
			Partition: -1, Key: []byte{'u', byte(i % 7)}, Value: value, Timestamp: int64(1_600_000_000_000 + i*10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// subsetJoin reads three of Clicks' five columns, a VARCHAR among them.
const subsetJoin = `
SELECT STREAM Clicks.rowtime, Clicks.page, Products.supplierId
FROM Clicks JOIN Products ON Clicks.productId = Products.productId`

// TestRepartitionedSubsetJoinMatchesWholeMessages runs a repartitioned join
// that reads a subset of the stream's columns, a kept VARCHAR among them:
// the stage ships only those columns (and the intermediate topic says so),
// and the join's output, streaming and bounded, is the output of the same
// query with the optimizer off, whose stage forwards whole messages.
func TestRepartitionedSubsetJoinMatchesWholeMessages(t *testing.T) {
	run := func(optimize bool) (stream, bounded []string, spec *physical.RepartitionSpec) {
		e := wideClicksEngine(t, optimize)
		if optimize {
			plan, err := e.Explain(subsetJoin)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "repartition by productId keeping rowtime, page, productId") {
				t.Fatalf("EXPLAIN does not list the kept columns:\n%s", plan)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p, job, err := e.ExecuteStream(ctx, subsetJoin)
		if err != nil {
			t.Fatal(err)
		}
		waitForCount(t, 15*time.Second, func() int {
			return len(drainNew(t, e.Broker, p.OutputTopic))
		}, 300, "repartitioned subset join output")
		job.Stop()
		for _, m := range drainNew(t, e.Broker, p.OutputTopic) {
			row, err := p.Program.OutputCodec.DecodeRow(m.Value, nil)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, fmt.Sprint(row))
		}
		rows, err := e.ExecuteBounded(strings.Replace(subsetJoin, "SELECT STREAM", "SELECT", 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			bounded = append(bounded, fmt.Sprint(r))
		}
		sort.Strings(stream)
		sort.Strings(bounded)
		return stream, bounded, p.Program.Repartitions[0]
	}
	stream, bounded, spec := run(true)
	wholeStream, wholeBounded, wholeSpec := run(false)
	if wholeSpec.Keep != nil || spec.Keep == nil || spec.TargetTopic == wholeSpec.TargetTopic {
		t.Fatalf("stages: optimized %s keeping %v, unoptimized %s keeping %v",
			spec.TargetTopic, spec.Keep, wholeSpec.TargetTopic, wholeSpec.Keep)
	}
	if want := []bool{true, false, true, true, false}; fmt.Sprint(spec.Keep) != fmt.Sprint(want) {
		t.Fatalf("stage keeps %v, want %v (rowtime, page, productId)", spec.Keep, want)
	}
	if len(stream) != 300 || strings.Join(stream, "\n") != strings.Join(wholeStream, "\n") {
		t.Fatalf("streaming output of the projecting stage (%d rows) differs from whole messages (%d rows)", len(stream), len(wholeStream))
	}
	if len(bounded) != 300 || strings.Join(bounded, "\n") != strings.Join(wholeBounded, "\n") {
		t.Fatalf("bounded output of the projecting stage (%d rows) differs from whole messages (%d rows)", len(bounded), len(wholeBounded))
	}
	if !strings.Contains(strings.Join(stream, ""), "/page/") {
		t.Fatalf("kept VARCHAR missing from the output: %v", stream[:3])
	}
}

// TestRepartitionBatchAllocs pins the re-keying batch's allocation cost on
// the repartition benchmark's shape, a BIGINT key in the middle of the
// record, both forwarding whole messages and projecting: the walk formats
// the key, and copies the kept fields, into arenas reused across batches,
// so a warm 256-message batch allocates nothing. Reading it through ReadField and repartitionKey cost a boxed
// value and a fresh key slice per message (2.00 allocs/message).
func TestRepartitionBatchAllocs(t *testing.T) {
	codec := avro.MustCodec(avro.Record("Clicks",
		avro.F("rowtime", avro.Long()), avro.F("userId", avro.Long()),
		avro.F("productId", avro.Long()), avro.F("pad", avro.String())))
	envs := make([]samza.IncomingMessageEnvelope, 256)
	for i := range envs {
		value, err := codec.EncodeRow([]any{int64(1_600_000_000_000 + i), int64(i % 7), int64(1000 + i*37), "padding"})
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = samza.IncomingMessageEnvelope{Value: value, Timestamp: int64(i)}
	}
	for _, keep := range [][]bool{nil, {true, false, true, false}} {
		task := &RepartitionTask{Spec: &physical.RepartitionSpec{TargetTopic: "out", KeyCol: "productId", Codec: codec, Keep: keep}, Partitions: 4}
		coll := &nullCollector{}
		perMsg := testing.AllocsPerRun(32, func() {
			if err := task.ProcessBatch(envs, coll, nil, 0); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(envs))
		t.Logf("repartition batch keeping %v: %.2f allocs/message", keep, perMsg)
		if coll.rows != 33*len(envs) {
			t.Fatalf("%d messages sent over 33 batches, want %d", coll.rows, 33*len(envs))
		}
		if perMsg > 0 {
			t.Errorf("repartition batch keeping %v: %.2f allocs/message, want none", keep, perMsg)
		}
	}
}

func TestSharedRepartitionStage(t *testing.T) {
	e := clicksEngine(t, 4)
	produceClicks(t, e, 50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, job1, err := e.ExecuteStream(ctx, clicksJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer job1.Stop()
	_, job2, err := e.ExecuteStream(ctx, clicksJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer job2.Stop()
	if len(job1.Repartitions) != 1 {
		t.Fatalf("first query started %d stages", len(job1.Repartitions))
	}
	if len(job2.Repartitions) != 0 {
		t.Fatalf("second query duplicated the repartition stage (%d)", len(job2.Repartitions))
	}
	// A query reading other columns of Clicks needs another intermediate
	// record, so it gets a stage of its own.
	_, job3, err := e.ExecuteStream(ctx, `
		SELECT STREAM Clicks.rowtime, Products.supplierId
		FROM Clicks JOIN Products ON Clicks.productId = Products.productId`)
	if err != nil {
		t.Fatal(err)
	}
	defer job3.Stop()
	if len(job3.Repartitions) != 1 {
		t.Fatalf("a query reading other columns started %d stages, want its own", len(job3.Repartitions))
	}
}

func TestRepartitionedJoinBounded(t *testing.T) {
	e := clicksEngine(t, 4)
	produceClicks(t, e, 200)
	rows, err := e.ExecuteBounded(strings.Replace(clicksJoin, "SELECT STREAM", "SELECT", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("%d joined rows, want 200", len(rows))
	}
	for _, r := range rows {
		if r[3].(int64) != r[2].(int64)%10 {
			t.Fatalf("join mismatch %v", r)
		}
	}
	// Idempotent: a second bounded run must not double the intermediate.
	rows2, err := e.ExecuteBounded(strings.Replace(clicksJoin, "SELECT STREAM", "SELECT", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 200 {
		t.Fatalf("second run: %d rows, want 200", len(rows2))
	}
}

// TestRepartitionStagePublishesTelemetry: a repartition stage takes the
// Engine's telemetry settings like the query job it feeds, so a monitored
// repartitioned join publishes the stage's metrics snapshots on __metrics
// and the monitor can see it.
func TestRepartitionStagePublishesTelemetry(t *testing.T) {
	const clicks = 200
	e := clicksEngine(t, 2)
	e.MetricsInterval = 20 * time.Millisecond
	tail, err := samza.NewTailer[samza.MetricsSnapshotMessage](e.Broker, samza.DefaultMetricsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	produceClicks(t, e, clicks)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, job, err := e.ExecuteStream(ctx, clicksJoin)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	if len(job.Repartitions) != 1 {
		t.Fatalf("%d repartition jobs started", len(job.Repartitions))
	}
	stage := job.Repartitions[0].Spec
	if stage.MetricsInterval != e.MetricsInterval {
		t.Fatalf("repartition stage metrics interval %v, engine %v", stage.MetricsInterval, e.MetricsInterval)
	}
	waitForCount(t, 15*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, clicks, "repartitioned join output")

	pollCtx, pollCancel := context.WithTimeout(ctx, 10*time.Second)
	defer pollCancel()
	for {
		batch, err := tail.Poll(pollCtx, 256)
		if pollCtx.Err() != nil {
			t.Fatalf("no metrics snapshot from job %q on %s", stage.Name, samza.DefaultMetricsTopic)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range batch {
			if m.Job == stage.Name {
				return
			}
		}
	}
}

// BenchmarkRepartitionBatch re-keys 256-message batches of the repartition
// benchmark's Clicks record by productId, forwarding whole messages and
// keeping the three columns its join reads.
func BenchmarkRepartitionBatch(b *testing.B) {
	codec := avro.MustCodec(avro.Record("Clicks",
		avro.F("rowtime", avro.Long()), avro.F("userId", avro.Long()), avro.F("productId", avro.Long()),
		avro.F("clickId", avro.Long()), avro.F("pad", avro.String())))
	envs := make([]samza.IncomingMessageEnvelope, 256)
	for i := range envs {
		value, err := codec.EncodeRow([]any{int64(1_600_000_000_000 + i), int64(i % 7), int64(i % 100), int64(i), strings.Repeat("p", 64)})
		if err != nil {
			b.Fatal(err)
		}
		envs[i] = samza.IncomingMessageEnvelope{Value: value, Timestamp: int64(i)}
	}
	for _, c := range []struct {
		name string
		keep []bool
	}{{"forward", nil}, {"project", []bool{true, false, true, true, false}}} {
		b.Run(c.name, func(b *testing.B) {
			task := &RepartitionTask{Spec: &physical.RepartitionSpec{TargetTopic: "out", KeyCol: "productId", Codec: codec, Keep: c.keep}, Partitions: 4}
			coll := &nullCollector{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := task.ProcessBatch(envs, coll, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(envs)), "ns/msg")
		})
	}
}
