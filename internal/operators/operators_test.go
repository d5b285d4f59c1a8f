package operators

import (
	"fmt"
	"math/rand"
	"testing"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

func testCtx() *OpContext {
	stores := map[string]kv.Store{}
	return &OpContext{
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
}

// testRow is one row in flight through a test: an input row, or a row an
// operator emitted.
type testRow struct {
	Row    []any
	Ts     int64
	Key    []byte
	Offset int64
}

func tup(offset int64, ts int64, row ...any) testRow {
	return testRow{Row: row, Ts: ts, Offset: offset}
}

// collect returns an emit that appends every selected row of the blocks it
// receives to out.
func collect(out *[]testRow) BlockEmit {
	return func(b *TupleBlock) error {
		for _, r := range b.Sel {
			row := make([]any, len(b.Cols))
			for c := range b.Cols {
				row[c] = b.Cols[c].Value(r)
			}
			*out = append(*out, testRow{Row: row, Ts: b.Ts[r], Key: b.Keys[r], Offset: b.Offsets[r]})
		}
		return nil
	}
}

// kindsOf types a test row's columns by its values (NULL as an escape
// column).
func kindsOf(row []any) []vec.Kind {
	kinds := make([]vec.Kind, len(row))
	for c, v := range row {
		switch v.(type) {
		case int64:
			kinds[c] = vec.Int64
		case float64:
			kinds[c] = vec.Float64
		case string:
			kinds[c] = vec.String
		case bool:
			kinds[c] = vec.Bool
		}
	}
	return kinds
}

// blockOf fills b with rows of the given kinds, offsets counting from
// offset and timestamps from column tsCol (-1 for none).
func blockOf(t testing.TB, b *TupleBlock, kinds []vec.Kind, rows [][]any, tsCol int, offset int64) *TupleBlock {
	t.Helper()
	b.Begin("in", 0, kinds)
	for i, row := range rows {
		var ts int64
		if tsCol >= 0 {
			ts = row[tsCol].(int64)
		}
		if err := b.AppendRow(row, ts, nil, offset+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Finish()
	return b
}

// process drives one row through op as a block of one — the per-tuple case.
func process(t *testing.T, op Operator, in testRow, emit BlockEmit) {
	t.Helper()
	b := &TupleBlock{}
	b.Begin("in", 0, kindsOf(in.Row))
	if err := b.AppendRow(in.Row, in.Ts, in.Key, in.Offset); err != nil {
		t.Fatal(err)
	}
	b.Finish()
	if err := op.ProcessBlock(0, b, emit); err != nil {
		t.Fatal(err)
	}
}

func TestFilterOp(t *testing.T) {
	cond := &expr.Binary{Op: expr.Gt,
		L: &expr.ColRef{Idx: 0, Name: "units", T: types.Bigint},
		R: &expr.Const{V: int64(10), T: types.Bigint},
		T: types.Boolean}
	op, err := NewFilterOp(cond, []vec.Kind{vec.Int64})
	if err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	for i, u := range []int64{5, 15, 10, 25} {
		process(t, op, tup(int64(i), 0, u), emit)
	}
	if len(out) != 2 || out[0].Row[0].(int64) != 15 || out[1].Row[0].(int64) != 25 {
		t.Fatalf("filtered %v", out)
	}
}

func TestProjectOpRefreshesTimestamp(t *testing.T) {
	op, err := NewProjectOp([]expr.Expr{
		&expr.Binary{Op: expr.Add,
			L: &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
			R: &expr.Const{V: int64(1000), T: types.Interval},
			T: types.Timestamp},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []testRow
	process(t, op, tup(0, 500, int64(500)), collect(&out))
	if out[0].Ts != 1500 {
		t.Fatalf("projected ts %d, want 1500", out[0].Ts)
	}
}

func boundAggs(fns ...string) []*validate.BoundAgg {
	var out []*validate.BoundAgg
	for _, fn := range fns {
		ag := &validate.BoundAgg{Fn: fn, T: types.Bigint}
		if fn == "SUM" || fn == "MIN" || fn == "MAX" || fn == "AVG" {
			ag.Arg = &expr.ColRef{Idx: 1, Name: "units", T: types.Bigint}
			if fn == "AVG" {
				ag.T = types.Double
			}
		}
		if fn == "START" || fn == "END" {
			ag.T = types.Timestamp
			ag.Arg = &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp}
		}
		out = append(out, ag)
	}
	return out
}

func TestUnwindowedAggregateEarlyResults(t *testing.T) {
	keys := []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}}
	op, err := NewStreamAggregateOp(keys, nil, boundAggs("COUNT", "SUM"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	// Rows: (ts, units, pid)
	inputs := []testRow{
		tup(0, 1, int64(1), int64(10), int64(7)),
		tup(1, 2, int64(2), int64(5), int64(7)),
		tup(2, 3, int64(3), int64(1), int64(8)),
	}
	for _, in := range inputs {
		process(t, op, in, emit)
	}
	// Early-results: one output per input.
	if len(out) != 3 {
		t.Fatalf("%d outputs", len(out))
	}
	// Second output: group 7 has count 2, sum 15.
	r := out[1].Row
	if r[0].(int64) != 7 || r[1].(int64) != 2 || r[2].(int64) != 15 {
		t.Fatalf("partial row %v", r)
	}
}

func TestWindowedAggregateEmitsOnWatermark(t *testing.T) {
	win := &validate.GroupWindow{
		Kind:         validate.WindowTumble,
		Ts:           &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		EmitMillis:   1000,
		RetainMillis: 1000,
	}
	op, err := NewStreamAggregateOp(nil, win, boundAggs("START", "COUNT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	// Three tuples in window (0,1000]; then one at 2500 closing it.
	for i, ts := range []int64{100, 400, 900} {
		process(t, op, tup(int64(i), ts, ts), emit)
	}
	if len(out) != 0 {
		t.Fatalf("window emitted before close: %v", out)
	}
	process(t, op, tup(3, 2500, int64(2500)), emit)
	if len(out) != 1 {
		t.Fatalf("%d windows emitted", len(out))
	}
	r := out[0].Row
	if r[0].(int64) != 0 || r[1].(int64) != 3 {
		t.Fatalf("window row %v (want START=0 COUNT=3)", r)
	}
}

func TestWindowedAggregateDropsLateTuples(t *testing.T) {
	win := &validate.GroupWindow{
		Kind:         validate.WindowTumble,
		Ts:           &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		EmitMillis:   1000,
		RetainMillis: 1000,
	}
	op, err := NewStreamAggregateOp(nil, win, boundAggs("COUNT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	process(t, op, tup(0, 500, int64(500)), emit)
	process(t, op, tup(1, 2500, int64(2500)), emit)
	if len(out) != 1 || out[0].Row[0].(int64) != 1 {
		t.Fatalf("first window: %v", out)
	}
	// Late arrival for the already-closed first window: discarded (§3).
	process(t, op, tup(2, 600, int64(600)), emit)
	if len(out) != 1 {
		t.Fatalf("late tuple re-emitted a window: %v", out)
	}
}

func TestAggregateReplayIsExactlyOnce(t *testing.T) {
	keys := []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}}
	op, err := NewStreamAggregateOp(keys, nil, boundAggs("COUNT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	in := tup(5, 1, int64(1), int64(10), int64(7))
	process(t, op, in, emit)
	// Re-delivery of the same offset must not change state or emit.
	process(t, op, in, emit)
	if len(out) != 1 {
		t.Fatalf("replayed tuple emitted again: %d outputs", len(out))
	}
	if out[0].Row[1].(int64) != 1 {
		t.Fatalf("replayed tuple double-counted: %v", out[0].Row)
	}
}

func slidingSpec(fn string, frameMillis int64, rows int64, unbounded bool) *validate.BoundAnalytic {
	spec := &validate.BoundAnalytic{
		Fn:          fn,
		Arg:         &expr.ColRef{Idx: 1, Name: "units", T: types.Bigint},
		PartitionBy: []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}},
		OrderBy:     &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		FrameMillis: frameMillis,
		FrameRows:   rows,
		IsRows:      rows > 0,
		Unbounded:   unbounded,
		T:           types.Bigint,
	}
	if fn == "COUNT" {
		spec.Arg = nil
	}
	return spec
}

func TestSlidingWindowRangeSum(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	// Partition 7: ts/unit pairs.
	inputs := []struct{ ts, units int64 }{
		{100, 10}, {500, 20}, {900, 5}, {1600, 7}, {3000, 1},
	}
	want := []int64{10, 30, 35, 12, 1} // sums over [ts-1000, ts]
	for i, in := range inputs {
		process(t, op, tup(int64(i), in.ts, in.ts, in.units, int64(7)), emit)
	}
	if len(out) != 5 {
		t.Fatalf("%d outputs", len(out))
	}
	for i, o := range out {
		got := o.Row[3].(int64)
		if got != want[i] {
			t.Fatalf("row %d: window sum %d, want %d", i, got, want[i])
		}
	}
}

func TestSlidingWindowPartitionsIsolated(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 10000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	process(t, op, tup(0, 100, int64(100), int64(10), int64(1)), emit)
	process(t, op, tup(1, 200, int64(200), int64(99), int64(2)), emit)
	process(t, op, tup(2, 300, int64(300), int64(5), int64(1)), emit)
	if out[2].Row[3].(int64) != 15 {
		t.Fatalf("partition 1 sum %v leaked partition 2's values", out[2].Row[3])
	}
}

func TestSlidingWindowRowsFrame(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 0, 2, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	units := []int64{1, 2, 4, 8, 16}
	want := []int64{1, 3, 7, 14, 28} // current + 2 preceding
	for i, u := range units {
		process(t, op, tup(int64(i), int64(i*100), int64(i*100), u, int64(7)), emit)
	}
	for i := range units {
		if got := out[i].Row[3].(int64); got != want[i] {
			t.Fatalf("row %d: %d, want %d", i, got, want[i])
		}
	}
}

func TestSlidingWindowMinMaxRebuild(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("MAX", 1000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	inputs := []struct{ ts, units int64 }{
		{100, 50}, {500, 20}, {1400, 7}, // the 50 expires before ts=1400
	}
	want := []int64{50, 50, 20}
	for i, in := range inputs {
		process(t, op, tup(int64(i), in.ts, in.ts, in.units, int64(7)), emit)
	}
	for i := range inputs {
		if got := out[i].Row[3].(int64); got != want[i] {
			t.Fatalf("row %d: MAX %d, want %d", i, got, want[i])
		}
	}
}

func TestSlidingWindowUnbounded(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("COUNT", 0, 0, true)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []testRow
	emit := collect(&out)
	for i := 0; i < 5; i++ {
		process(t, op, tup(int64(i), int64(i), int64(i), int64(1), int64(7)), emit)
	}
	if got := out[4].Row[3].(int64); got != 5 {
		t.Fatalf("unbounded count %d, want 5", got)
	}
}

func TestSlidingWindowStateSurvivesRestore(t *testing.T) {
	// Two operator incarnations over one changelog: the second restores what
	// the first wrote, then sees a message replay. The window's state is
	// resident, so the changelog is the only copy a second incarnation can
	// find.
	broker := kafka.NewBroker()
	spec := slidingSpec("SUM", 10000, 0, false)
	op1 := changelogWindowOp(t, broker, spec)
	var out []testRow
	emit := collect(&out)
	process(t, op1, tup(0, 100, int64(100), int64(10), int64(7)), emit)
	process(t, op1, tup(1, 200, int64(200), int64(20), int64(7)), emit)
	// "Crash", restart with restored store; offset 1 replays, then 2 new.
	op2 := changelogWindowOp(t, broker, spec)
	process(t, op2, tup(1, 200, int64(200), int64(20), int64(7)), emit)
	process(t, op2, tup(2, 300, int64(300), int64(5), int64(7)), emit)
	// Replayed offset 1 emits nothing; final sum = 10+20+5.
	if len(out) != 3 {
		t.Fatalf("%d outputs (replay not deduped)", len(out))
	}
	if got := out[2].Row[3].(int64); got != 35 {
		t.Fatalf("post-restore sum %d, want 35", got)
	}
}

// TestSlidingWindowUnboundedKeepsNoContributions pins the state-leak fix: an
// UNBOUNDED PRECEDING frame never purges, so nothing may be stored per row —
// the changelog holds one state row per partition however long the stream
// runs.
func TestSlidingWindowUnboundedKeepsNoContributions(t *testing.T) {
	for _, batch := range []int{1, 256} {
		broker := kafka.NewBroker()
		op := changelogWindowOp(t, broker, slidingSpec("SUM", 0, 0, true))
		const n, keys = 10_000, 10
		rows := inOrderRows(n, keys)
		out := map[int64]string{}
		feedWindow(t, op, rows, 0, n, batch, out)
		if got := len(foldedChangelog(t, broker)); got != keys {
			t.Fatalf("batch=%d: %d changelog keys after %d rows over %d partitions, want one state row each", batch, got, n, keys)
		}
		var sum int64
		for i := n - keys; i >= 0; i -= keys {
			sum += rows[i].units
		}
		if got, want := out[n-keys], fmt.Sprint([]any{sum}); got != want {
			t.Fatalf("batch=%d: unbounded sum %s, want %s", batch, got, want)
		}
	}
}

// TestSlidingWindowOutOfOrderGolden feeds tuples whose ts is below their
// partition's newest retained ts. A late tuple takes its (ts, offset) place
// in the deque and purges by its own ts, exactly as when every message had
// its own ordered key: the expected outputs and output digests were recorded
// from that per-message layout (commit 3dea71e, before the chunked one), the
// folded changelog digests from the per-tuple Process path of the chunked
// layout (commit fc0bc3c, the last one to have that path).
func TestSlidingWindowOutOfOrderGolden(t *testing.T) {
	vectors := []struct {
		name string
		spec *validate.BoundAnalytic
		rows []windowRow
		want []int64
	}{
		// The third row is late; the fourth purges it by its ts.
		{"range-sum", slidingSpec("SUM", 1000, 0, false),
			[]windowRow{{1000, 10, 7}, {3000, 20, 7}, {1500, 5, 7}, {3400, 1, 7}}, []int64{10, 20, 25, 21}},
		{"rows-sum", slidingSpec("SUM", 0, 1, false),
			[]windowRow{{100, 1, 7}, {300, 2, 7}, {200, 4, 7}, {400, 8, 7}}, []int64{1, 3, 6, 10}},
		{"range-max", slidingSpec("MAX", 1000, 0, false),
			[]windowRow{{1000, 50, 7}, {3000, 20, 7}, {1500, 70, 7}, {3400, 1, 7}}, []int64{50, 20, 70, 20}},
	}
	sizes := windowBlockSizes()
	for _, v := range vectors {
		for _, bs := range sizes {
			op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{v.spec})
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(testCtx()); err != nil {
				t.Fatal(err)
			}
			out := map[int64]string{}
			feedWindow(t, op, v.rows, 0, len(v.rows), bs, out)
			for i, want := range v.want {
				if got := out[int64(i)]; got != fmt.Sprint([]any{want}) {
					t.Fatalf("%s batch=%d: row %d emitted %s, want %d", v.name, bs, i, got, want)
				}
			}
		}
	}

	// 1500 rows over two partitions spanning three chunks each, one row in
	// six mildly late (an in-place insert into the tail chunk, spilling it
	// when full) and one in forty older than the whole tail chunk (a rebuild
	// of the deque).
	goldens := map[string]windowGolden{
		"SUM range": {"8eaf8471a830b70b", "19e2c778ad3371b1"},
		"SUM rows":  {"eb4bd406457f1117", "2efcb930cc65eec7"},
		"MIN range": {"37c2c08a30715d59", "0e2b67a4524d0c58"},
		"MIN rows":  {"2c4600993aedeee9", "6b5803f681bc7496"},
	}
	for _, fn := range []string{"SUM", "MIN"} {
		for _, mode := range []string{"range", "rows"} {
			rng := rand.New(rand.NewSource(7))
			var rows []windowRow
			for i := 0; i < 1500; i++ {
				ts := int64(100_000 + i*10)
				switch {
				case rng.Intn(6) == 0:
					ts -= int64(rng.Intn(400))
				case rng.Intn(40) == 0:
					ts -= int64(1000 + rng.Intn(1500))
				}
				rows = append(rows, windowRow{ts, int64(rng.Intn(1000)), int64(rng.Intn(2))})
			}
			spec := slidingSpec(fn, 3000, 0, false)
			if mode == "rows" {
				spec = slidingSpec(fn, 0, 150, false)
			}
			for _, bs := range sizes {
				broker := kafka.NewBroker()
				op := changelogWindowOp(t, broker, spec)
				out := map[int64]string{}
				feedWindow(t, op, rows, 0, len(rows), bs, out)
				got, want := windowGolden{windowDigest(out, len(rows)), stateDigest(t, broker)}, goldens[fn+" "+mode]
				if got != want {
					t.Fatalf("%s %s batch=%d: digests %+v, want the recorded %+v", fn, mode, bs, got, want)
				}
			}
		}
	}
}

// TestSlidingWindowRestoreMidTailChunk restarts a changelog-backed window
// task while its partitions' tail chunks are partly filled — with a deque of
// one chunk and of several — and requires the restored task to continue
// exactly where the first left off, in the same chunks — the chunks the
// per-tuple Process path of commit fc0bc3c left.
func TestSlidingWindowRestoreMidTailChunk(t *testing.T) {
	goldens := map[int64]windowGolden{
		chunkCap / 2:   {"7610708bbd269fe1", "975bdadea71dd169"},
		2*chunkCap + 9: {"f61af27c42db1428", "c2c922b11a81225b"},
	}
	for _, frameRows := range []int64{chunkCap / 2, 2*chunkCap + 9} {
		spec := slidingSpec("SUM", 0, frameRows, false)
		rows := inOrderRows(4*chunkCap, 1)
		ref := windowReference("SUM", 0, frameRows, rows)
		for _, bs := range []int{1, 7, 256, samza.DefaultBatchSize} {
			// The first task stops a few entries into a tail chunk.
			stopAt := 2*chunkCap + chunkCap/3
			broker := kafka.NewBroker()
			op := changelogWindowOp(t, broker, spec)
			out := map[int64]string{}
			feedWindow(t, op, rows, 0, stopAt, bs, out)
			op = changelogWindowOp(t, broker, spec)
			// The last committed rows replay, then new ones arrive.
			feedWindow(t, op, rows, stopAt-5, len(rows), bs, out)
			for i := range rows {
				if got, want := out[int64(i)], fmt.Sprint([]any{ref[i]}); got != want {
					t.Fatalf("rows=%d batch=%d: offset %d emitted %s, want %s", frameRows, bs, i, got, want)
				}
			}
			// An uninterrupted task leaves the same state behind.
			whole := kafka.NewBroker()
			op = changelogWindowOp(t, whole, spec)
			feedWindow(t, op, rows, 0, len(rows), bs, map[int64]string{})
			if got, want := fmt.Sprint(foldedChangelog(t, broker)), fmt.Sprint(foldedChangelog(t, whole)); got != want {
				t.Fatalf("rows=%d batch=%d: restored task left different state than an uninterrupted one", frameRows, bs)
			}
			if got := (windowGolden{windowDigest(out, len(rows)), stateDigest(t, broker)}); got != goldens[frameRows] {
				t.Fatalf("rows=%d batch=%d: digests %+v, want the per-tuple reference's %+v", frameRows, bs, got, goldens[frameRows])
			}
		}
	}
}
