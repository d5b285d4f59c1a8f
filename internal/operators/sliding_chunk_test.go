package operators

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/validate"
)

// windowRow is one sliding-window input row [ts, units, pid]; a row's offset
// is its index in the input.
type windowRow struct{ ts, units, pid int64 }

// inOrderRows is n rows whose timestamps advance 10 ms per row, spread
// round-robin over keys partitions.
func inOrderRows(n, keys int) []windowRow {
	rows := make([]windowRow, n)
	for i := range rows {
		rows[i] = windowRow{ts: 1_600_000_000_000 + int64(i)*10, units: int64(i*7%13 + 1), pid: int64(i % keys)}
	}
	return rows
}

// feedWindow drives rows[from:to) through op — one Process call per row when
// batch <= 0, ProcessBlock over blocks of at most batch rows otherwise — and
// records every emitted row's analytic values under the row's offset.
func feedWindow(t *testing.T, op *SlidingWindowOp, rows []windowRow, from, to, batch int, out map[int64]string) {
	t.Helper()
	feedWindowArgs(t, op, rows, nil, from, to, batch, out)
}

// feedWindowArgs is feedWindow with the aggregate input column taken from
// args (index-aligned with rows) instead of the rows' int64 units, for
// inputs of other types.
func feedWindowArgs(t *testing.T, op *SlidingWindowOp, rows []windowRow, args []any, from, to, batch int, out map[int64]string) {
	t.Helper()
	arg := func(i int) any {
		if args != nil {
			return args[i]
		}
		return rows[i].units
	}
	if batch <= 0 {
		for i := from; i < to; i++ {
			r := rows[i]
			err := op.Process(0, tup(int64(i), r.ts, r.ts, arg(i), r.pid), func(o *Tuple) error {
				out[o.Offset] = fmt.Sprint(o.Row[3:])
				return nil
			})
			if err != nil {
				t.Fatalf("offset %d: %v", i, err)
			}
		}
		return
	}
	b := &TupleBlock{}
	for from < to {
		n := min(batch, to-from)
		b.Reset("in", 0, n)
		b.sizeCols(3, n)
		for k := 0; k < n; k++ {
			r := rows[from+k]
			b.Cols[0][k], b.Cols[1][k], b.Cols[2][k] = r.ts, arg(from+k), r.pid
			b.Ts = append(b.Ts, r.ts)
			b.Keys = append(b.Keys, nil)
			b.Offsets = append(b.Offsets, int64(from+k))
		}
		b.SelAll()
		err := op.ProcessBlock(0, b, func(o *TupleBlock) error {
			for _, k := range o.Sel {
				vals := make([]any, 0, len(o.Cols)-3)
				for _, col := range o.Cols[3:] {
					vals = append(vals, col[k])
				}
				out[o.Offsets[k]] = fmt.Sprint(vals)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("block at offset %d: %v", from, err)
		}
		from += n
	}
}

const windowChangelog = "window-changelog"

// changelogWindowOp opens a sliding-window operator over a fresh store
// mirrored to the broker's window changelog (restored from it first, the
// way a restarted task comes up).
func changelogWindowOp(t *testing.T, broker *kafka.Broker, writeBatch int, specs ...*validate.BoundAnalytic) (*SlidingWindowOp, *kv.ChangelogStore) {
	t.Helper()
	cl, err := kv.NewChangelogStore(kv.NewStore(), broker, windowChangelog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWriteBatchSize(writeBatch)
	if err := cl.Restore(); err != nil {
		t.Fatal(err)
	}
	op, err := NewSlidingWindowOp(specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &OpContext{Store: func(string) kv.Store { return cl }, Metrics: metrics.NewRegistry()}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	return op, cl
}

// foldedChangelog folds the window changelog last-write-wins per key, the
// state a restore would rebuild.
func foldedChangelog(t *testing.T, broker *kafka.Broker) []string {
	t.Helper()
	tp := kafka.TopicPartition{Topic: windowChangelog, Partition: 0}
	hwm, err := broker.HighWatermark(tp)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]string{}
	for off := int64(0); off < hwm; {
		msgs, wait, err := broker.Fetch(tp, off, 512)
		if err != nil {
			t.Fatal(err)
		}
		if wait != nil {
			break
		}
		for _, m := range msgs {
			if m.Value == nil {
				delete(state, string(m.Key))
			} else {
				state[string(m.Key)] = fmt.Sprintf("%x=%x", m.Key, m.Value)
			}
		}
		off = msgs[len(msgs)-1].Offset + 1
	}
	out := make([]string, 0, len(state))
	for _, v := range state {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// windowReference computes, for in-order rows, what one bounded analytic
// call emits per row: the aggregate over the row's partition, restricted to
// the frame ending at the row.
func windowReference(fn string, frameMillis, frameRows int64, rows []windowRow) []int64 {
	out := make([]int64, len(rows))
	for i, cur := range rows {
		var vals []int64
		for j := i; j >= 0; j-- {
			r := rows[j]
			if r.pid != cur.pid {
				continue
			}
			if frameRows > 0 && int64(len(vals)) == frameRows+1 {
				break
			}
			if frameRows == 0 && r.ts < cur.ts-frameMillis {
				break
			}
			vals = append(vals, r.units)
		}
		agg := vals[0]
		for _, v := range vals[1:] {
			switch fn {
			case "SUM":
				agg += v
			case "MIN":
				agg = min(agg, v)
			case "MAX":
				agg = max(agg, v)
			}
		}
		if fn == "COUNT" {
			agg = int64(len(vals))
		}
		out[i] = agg
	}
	return out
}

// TestSlidingWindowChunkBoundaries runs window plans whose partitions hold
// chunkCap-1, chunkCap, chunkCap+1 and 3*chunkCap contributions — ROWS and
// RANGE frames, invertible and rebuilt aggregates, two calls in one
// operator — through the scalar path and a spread of block sizes. Every run
// must emit the brute-force reference, and every block size must leave the
// changelog folding to exactly the state the scalar path leaves.
func TestSlidingWindowChunkBoundaries(t *testing.T) {
	const n = 5*chunkCap + 17
	type plan struct {
		name  string
		keys  int
		specs []*validate.BoundAnalytic
		// fn/frame describe each call for the reference.
		fns    []string
		millis []int64
		nrows  []int64
	}
	var plans []plan
	for _, pop := range []int64{chunkCap - 1, chunkCap, chunkCap + 1, 3 * chunkCap} {
		plans = append(plans,
			plan{
				name: fmt.Sprintf("rows-sum-%d", pop), keys: 1,
				specs: []*validate.BoundAnalytic{slidingSpec("SUM", 0, pop-1, false)},
				fns:   []string{"SUM"}, millis: []int64{0}, nrows: []int64{pop - 1},
			},
			plan{
				// One row per 20 ms per key: a frame of (pop-1)*20 ms holds pop.
				name: fmt.Sprintf("range-sum-%d", pop), keys: 2,
				specs: []*validate.BoundAnalytic{slidingSpec("SUM", (pop-1)*20, 0, false)},
				fns:   []string{"SUM"}, millis: []int64{(pop - 1) * 20}, nrows: []int64{0},
			})
	}
	plans = append(plans,
		plan{
			name: "minmax-rebuild-3-chunks", keys: 1,
			specs: []*validate.BoundAnalytic{slidingSpec("MIN", 0, 3*chunkCap-1, false), slidingSpec("MAX", (3*chunkCap-1)*10, 0, false)},
			fns:   []string{"MIN", "MAX"}, millis: []int64{0, (3*chunkCap - 1) * 10}, nrows: []int64{3*chunkCap - 1, 0},
		},
		plan{
			name: "two-calls", keys: 3,
			specs: []*validate.BoundAnalytic{slidingSpec("SUM", (chunkCap+1)*30, 0, false), slidingSpec("COUNT", 0, chunkCap, false)},
			fns:   []string{"SUM", "COUNT"}, millis: []int64{(chunkCap + 1) * 30, 0}, nrows: []int64{0, chunkCap},
		})
	rng := rand.New(rand.NewSource(0x5eed))
	sizes := []int{-1, 1, 7, 256, 2 + rng.Intn(96)}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			rows := inOrderRows(n, p.keys)
			refs := make([][]int64, len(p.specs))
			for c := range p.specs {
				refs[c] = windowReference(p.fns[c], p.millis[c], p.nrows[c], rows)
			}
			var scalarState []string
			for _, bs := range sizes {
				broker := kafka.NewBroker()
				op, cl := changelogWindowOp(t, broker, 1, p.specs...)
				out := map[int64]string{}
				feedWindow(t, op, rows, 0, n, bs, out)
				if err := cl.Flush(); err != nil {
					t.Fatal(err)
				}
				for i := range rows {
					want := make([]any, len(refs))
					for c := range refs {
						want[c] = refs[c][i]
					}
					if got := out[int64(i)]; got != fmt.Sprint(want) {
						t.Fatalf("batch=%d offset %d: emitted %s, want %v", bs, i, got, want)
					}
				}
				state := foldedChangelog(t, broker)
				if bs == -1 {
					scalarState = state
					continue
				}
				if fmt.Sprint(state) != fmt.Sprint(scalarState) {
					t.Fatalf("batch=%d: folded changelog state differs from the scalar path's\n scalar: %v\n block:  %v", bs, scalarState, state)
				}
			}
		})
	}
}

// TestSlidingWindowNonIntegerContributions covers the generic entry encoding:
// float, string and NULL aggregate inputs (anything but int64 goes through
// ObjectSerde inside the chunk) in deques that cross chunk boundaries, purge
// and rebuild. Scalar and block paths must agree on outputs and state.
func TestSlidingWindowNonIntegerContributions(t *testing.T) {
	const n = 3*chunkCap + 11
	rows := inOrderRows(n, 1)
	floats, strs := make([]any, n), make([]any, n)
	for i := range rows {
		floats[i], strs[i] = float64(i%17)+0.5, fmt.Sprintf("k%03d", i*37%101)
		if i%9 == 4 {
			floats[i], strs[i] = nil, nil
		}
	}
	const frameRows = chunkCap + 3
	cases := []struct {
		fn   string
		args []any
		want func(i int) any
	}{
		{"SUM", floats, func(i int) any {
			sum := 0.0
			for j := max(0, i-frameRows); j <= i; j++ {
				if f, ok := floats[j].(float64); ok {
					sum += f
				}
			}
			return sum
		}},
		{"MIN", strs, func(i int) any {
			var least any
			for j := max(0, i-frameRows); j <= i; j++ {
				if s, ok := strs[j].(string); ok && (least == nil || s < least.(string)) {
					least = s
				}
			}
			return least
		}},
	}
	for _, c := range cases {
		var scalarState []string
		for _, bs := range []int{-1, 7, 256} {
			broker := kafka.NewBroker()
			op, cl := changelogWindowOp(t, broker, 1, slidingSpec(c.fn, 0, frameRows, false))
			out := map[int64]string{}
			feedWindowArgs(t, op, rows, c.args, 0, n, bs, out)
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := range rows {
				if got, want := out[int64(i)], fmt.Sprint([]any{c.want(i)}); got != want {
					t.Fatalf("%s batch=%d offset %d: emitted %s, want %s", c.fn, bs, i, got, want)
				}
			}
			state := foldedChangelog(t, broker)
			if bs == -1 {
				scalarState = state
			} else if fmt.Sprint(state) != fmt.Sprint(scalarState) {
				t.Fatalf("%s batch=%d: folded changelog state differs from the scalar path's", c.fn, bs)
			}
		}
	}
}

// TestSlidingWindowCrashPointSweep crashes a changelog-backed window task at
// every point of an interval after a commit — the changelog's write-batch
// cap small enough that early flushes land all through the interval — then
// restores from the changelog, replays from the committed offset, and
// requires every row to come out exactly as the uncrashed run emits it. An
// early flush that split one tuple's (or block's) writes would restore a
// state row whose accumulator and deque disagree, and the sums after the
// crash would stay wrong.
func TestSlidingWindowCrashPointSweep(t *testing.T) {
	const writeBatch = 7
	sweeps := []struct {
		name        string
		batch       int
		frameMillis int64
		n, commitAt int
		crashes     []int
	}{
		// Five contributions per partition: expiry from the first commit on.
		{name: "scalar", batch: -1, frameMillis: 120, n: 160, commitAt: 50, crashes: seq(51, 120)},
		// 80 per partition: the deque spans chunks, heads get deleted.
		{name: "scalar-multi-chunk", batch: -1, frameMillis: 1590, n: 400, commitAt: 200, crashes: seq(201, 270)},
		{name: "block-7", batch: 7, frameMillis: 120, n: 160, commitAt: 49, crashes: seq(50, 120)},
		{name: "block-7-multi-chunk", batch: 7, frameMillis: 1590, n: 400, commitAt: 196, crashes: seq(197, 270)},
		{name: "block-256", batch: 256, frameMillis: 1590, n: 1400, commitAt: 512, crashes: []int{600, 768, 900, 1024, 1280}},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			spec := slidingSpec("SUM", sw.frameMillis, 0, false)
			rows := inOrderRows(sw.n, 2)
			ref := windowReference("SUM", sw.frameMillis, 0, rows)
			diverged := 0
			for _, crashAt := range sw.crashes {
				broker := kafka.NewBroker()
				op, cl := changelogWindowOp(t, broker, writeBatch, spec)
				out := map[int64]string{}
				feedWindow(t, op, rows, 0, sw.commitAt, sw.batch, out)
				if err := cl.Flush(); err != nil { // the commit
					t.Fatal(err)
				}
				feedWindow(t, op, rows, sw.commitAt, crashAt, sw.batch, out)
				// Crash: whatever the changelog store still buffers is lost.
				op, _ = changelogWindowOp(t, broker, writeBatch, spec)
				feedWindow(t, op, rows, sw.commitAt, sw.n, sw.batch, out)
				for i := range rows {
					if got, want := out[int64(i)], fmt.Sprint([]any{ref[i]}); got != want {
						t.Errorf("crash at %d: offset %d emitted %s, want %s", crashAt, i, got, want)
						diverged++
						break
					}
				}
			}
			if diverged > 0 {
				t.Fatalf("%d of %d crash points diverge from the uncrashed run", diverged, len(sw.crashes))
			}
		})
	}
}

// seq returns from, from+1, ..., to-1.
func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}
