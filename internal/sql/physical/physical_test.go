package physical

import (
	"strings"
	"testing"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/parser"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/workload"
)

func compile(t *testing.T, query string) *Program {
	t.Helper()
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		t.Fatal(err)
	}
	stmt, err := parser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := validate.New(cat).Validate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(p, "out")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func openProgram(t *testing.T, prog *Program) *[]capture {
	t.Helper()
	stores := map[string]kv.Store{}
	ctx := &operators.OpContext{
		Store: func(name string) kv.Store {
			s, ok := stores[name]
			if !ok {
				s = kv.NewStore()
				stores[name] = s
			}
			return s
		},
		Metrics: metrics.NewRegistry(),
	}
	if err := prog.Router.Open(ctx); err != nil {
		t.Fatal(err)
	}
	out := &[]capture{}
	prog.SetBatchSender(func(stream string, msgs []kafka.Message) error {
		for _, m := range msgs {
			row, err := prog.OutputCodec.DecodeRow(m.Value, nil)
			if err != nil {
				return err
			}
			*out = append(*out, capture{stream: stream, row: row})
		}
		return nil
	})
	return out
}

// routeOne drives one message through the program as a block of one.
func routeOne(prog *Program, topic string, value, key []byte, ts, offset int64) error {
	return prog.RouteBatch([]samza.IncomingMessageEnvelope{{
		Stream: topic, Offset: offset, Key: key, Value: value, Timestamp: ts,
	}})
}

type capture struct {
	stream string
	row    []any
}

func ordersMessage(t *testing.T, gen *workload.OrdersGen) ([]any, []byte) {
	t.Helper()
	row, _, value, err := gen.Next()
	if err != nil {
		t.Fatal(err)
	}
	return row, value
}

func TestCompileFilterProgram(t *testing.T) {
	prog := compile(t, "SELECT STREAM rowtime, units FROM Orders WHERE units > 50")
	if !prog.Streaming {
		t.Fatal("streaming flag lost")
	}
	if len(prog.Inputs) != 1 || prog.Inputs[0].Topic != "orders" || prog.Inputs[0].Bootstrap {
		t.Fatalf("inputs %+v", prog.Inputs[0])
	}
	if prog.OutputTopic != "out" || prog.OutputRow.Arity() != 2 {
		t.Fatalf("output %s %v", prog.OutputTopic, prog.OutputRow)
	}
	if len(prog.Stores) != 0 {
		t.Fatalf("stateless query declared stores %v", prog.Stores)
	}

	out := openProgram(t, prog)
	gen := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	sent := 0
	want := 0
	for i := 0; i < 100; i++ {
		row, value := ordersMessage(t, gen)
		if row[3].(int64) > 50 {
			want++
		}
		if err := routeOne(prog, "orders", value, nil, row[0].(int64), int64(i)); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if len(*out) != want {
		t.Fatalf("%d outputs for %d sent, want %d", len(*out), sent, want)
	}
	for _, c := range *out {
		if len(c.row) != 2 {
			t.Fatalf("output row %v", c.row)
		}
	}
}

func TestCompileInsertTarget(t *testing.T) {
	prog := compile(t, "INSERT INTO Orders SELECT STREAM * FROM Orders WHERE units > 0")
	if prog.OutputTopic != "Orders" {
		t.Fatalf("insert target %q", prog.OutputTopic)
	}
}

func TestCompileJoinProgramMarksBootstrapAndStore(t *testing.T) {
	prog := compile(t, `
		SELECT STREAM Orders.rowtime, Products.supplierId
		FROM Orders JOIN Products ON Orders.productId = Products.productId`)
	var boot, stream *Input
	for _, in := range prog.Inputs {
		if in.Bootstrap {
			boot = in
		} else {
			stream = in
		}
	}
	if boot == nil || boot.Topic != "products" {
		t.Fatalf("bootstrap input %+v", boot)
	}
	if stream == nil || stream.Topic != "orders" {
		t.Fatalf("stream input %+v", stream)
	}
	// The relation lives in the join operator and is rebuilt from its own
	// topic on every start: the program declares no store.
	if len(prog.Stores) != 0 {
		t.Fatalf("stores %v, want none", prog.Stores)
	}
}

func TestCompiledJoinRoutesSides(t *testing.T) {
	prog := compile(t, `
		SELECT STREAM Orders.orderId, Products.supplierId
		FROM Orders JOIN Products ON Orders.productId = Products.productId`)
	out := openProgram(t, prog)

	// Relation row first (as bootstrap would deliver), then an order.
	pc := avro.MustCodec(workload.ProductsSchema())
	pv, err := pc.EncodeRow([]any{int64(7), "product-7", int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := routeOne(prog, "products", pv, []byte("7"), 0, 0); err != nil {
		t.Fatal(err)
	}
	oc := avro.MustCodec(workload.OrdersSchema())
	ov, err := oc.EncodeRow([]any{int64(1000), int64(7), int64(1), int64(5), "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := routeOne(prog, "orders", ov, []byte("7"), 1000, 0); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 1 {
		t.Fatalf("%d join outputs", len(*out))
	}
	row := (*out)[0].row
	if row[0].(int64) != 1 || row[1].(int64) != 3 {
		t.Fatalf("joined row %v", row)
	}
	// Order with no matching product: no output.
	ov2, _ := oc.EncodeRow([]any{int64(1001), int64(99), int64(2), int64(5), "x"})
	if err := routeOne(prog, "orders", ov2, []byte("99"), 1001, 1); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 1 {
		t.Fatalf("unmatched order emitted: %d outputs", len(*out))
	}
}

func TestCompileAggregateProgramFlush(t *testing.T) {
	prog := compile(t, `
		SELECT STREAM START(rowtime), COUNT(*) FROM Orders
		GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND)`)
	if prog.Aggregate() == nil {
		t.Fatal("aggregate operator not exposed")
	}
	out := openProgram(t, prog)
	oc := avro.MustCodec(workload.OrdersSchema())
	for i, ts := range []int64{100, 400, 900} {
		v, _ := oc.EncodeRow([]any{ts, int64(1), int64(i), int64(2), "x"})
		if err := routeOne(prog, "orders", v, nil, ts, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(*out) != 0 {
		t.Fatalf("window emitted early: %v", *out)
	}
	if err := prog.FlushAggregate(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 1 || (*out)[0].row[1].(int64) != 3 {
		t.Fatalf("flushed windows %v", *out)
	}
}

func TestCompileRejectsDuplicateTopics(t *testing.T) {
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		t.Fatal(err)
	}
	stmt, err := parser.Parse(`
		SELECT STREAM a.rowtime FROM Orders a JOIN Orders b
		ON a.orderId = b.orderId
		AND a.rowtime BETWEEN b.rowtime - INTERVAL '1' SECOND AND b.rowtime + INTERVAL '1' SECOND`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := validate.New(cat).Validate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, "out"); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("self-join compile: %v", err)
	}
}

func TestOutputCodecNullable(t *testing.T) {
	prog := compile(t, "SELECT productId, SUM(units) FROM Orders GROUP BY productId")
	// Aggregate outputs must tolerate NULL (SUM of empty group).
	b, err := prog.OutputCodec.EncodeRow([]any{int64(1), nil})
	if err != nil {
		t.Fatalf("nullable output encode: %v", err)
	}
	row, err := prog.OutputCodec.DecodeRow(b, nil)
	if err != nil || row[1] != nil {
		t.Fatalf("decode %v %v", row, err)
	}
}

func TestCodecForUnmappableType(t *testing.T) {
	_, err := codecFor("X", types.NewRowType(types.Column{Name: "a", Type: types.Unknown}), true)
	if err == nil {
		t.Fatal("unknown type mapped")
	}
}
