package operators

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
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

// feedWindow drives rows[from:to) through op in blocks of at most batch rows
// and records every emitted row's analytic values under the row's offset.
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
	b := &TupleBlock{}
	kinds := windowKinds(args)
	for from < to {
		n := min(batch, to-from)
		b.Begin("in", 0, kinds)
		for k := 0; k < n; k++ {
			r := rows[from+k]
			if err := b.AppendRow([]any{r.ts, arg(from + k), r.pid}, r.ts, nil, int64(from+k)); err != nil {
				t.Fatal(err)
			}
		}
		b.Finish()
		err := op.ProcessBlock(0, b, func(o *TupleBlock) error {
			for _, k := range o.Sel {
				vals := make([]any, 0, len(o.Cols)-3)
				for c := range o.Cols[3:] {
					vals = append(vals, o.Cols[3+c].Value(k))
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

// windowKinds types the [ts, arg, pid] columns of a window input whose
// aggregate arguments are args (int64 units when nil).
func windowKinds(args []any) []vec.Kind {
	kinds := []vec.Kind{vec.Int64, vec.Int64, vec.Int64}
	for _, a := range args {
		if a != nil {
			kinds[1] = kindsOf([]any{a})[0]
			break
		}
	}
	return kinds
}

const windowChangelog = "window-changelog"

// changelogWindowOp opens a sliding-window operator over a fresh store
// mirrored to the broker's window changelog (restored from it first, the
// way a restarted task comes up).
func changelogWindowOp(t *testing.T, broker *kafka.Broker, specs ...*validate.BoundAnalytic) *SlidingWindowOp {
	t.Helper()
	cl, err := kv.NewChangelogStore(kv.NewStore(), broker, windowChangelog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	return op
}

// foldedChangelog folds the window changelog per key the way a restore
// does — a full record replaces, an append record extends, a tombstone
// deletes — into the state a restore would rebuild.
func foldedChangelog(t *testing.T, broker *kafka.Broker) []string {
	t.Helper()
	state := changelogState(t, broker)
	out := make([]string, 0, len(state))
	for k, v := range state {
		out = append(out, fmt.Sprintf("%x=%x", k, v))
	}
	sort.Strings(out)
	return out
}

// changelogState is the window changelog folded per key, as foldedChangelog
// describes.
func changelogState(t testing.TB, broker *kafka.Broker) map[string][]byte {
	t.Helper()
	tp := kafka.TopicPartition{Topic: windowChangelog, Partition: 0}
	hwm, err := broker.HighWatermark(tp)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string][]byte{}
	for off := int64(0); off < hwm; {
		msgs, wait, err := broker.Fetch(tp, off, 512)
		if err != nil {
			t.Fatal(err)
		}
		if wait != nil {
			break
		}
		for _, m := range msgs {
			switch {
			case m.Value == nil:
				delete(state, string(m.Key))
			case m.Append:
				state[string(m.Key)] = append(state[string(m.Key)], m.Value...)
			default:
				state[string(m.Key)] = append([]byte(nil), m.Value...)
			}
		}
		off = msgs[len(msgs)-1].Offset + 1
	}
	return state
}

// windowGolden is what the per-tuple Process path — commit fc0bc3c, the last
// one to have it — left behind for one scenario: the FNV-64a of the emitted
// analytic values in offset order and of the folded changelog.
type windowGolden struct{ out, state string }

// windowDigest folds the analytic values emitted for offsets 0..n-1.
func windowDigest(out map[int64]string, n int) string {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%s,", strings.Trim(out[int64(i)], "[]"))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stateDigest folds the window changelog, as foldedChangelog does, into one
// FNV-64a.
func stateDigest(t *testing.T, broker *kafka.Broker) string {
	t.Helper()
	h := fnv.New64a()
	for _, l := range foldedChangelog(t, broker) {
		fmt.Fprintf(h, "%s\n", l)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// windowBlockSizes is the spread the window tests run: one-row blocks (the
// per-tuple case), a prime, 256, the default and a seeded random size.
func windowBlockSizes() []int {
	return []int{1, 7, 256, samza.DefaultBatchSize, 2 + rand.New(rand.NewSource(0x5eed)).Intn(96)}
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
// operator — at a spread of block sizes. Every run must emit the brute-force
// reference, and every block size must leave the changelog folding to exactly
// the state the recorded per-tuple reference left.
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
	goldens := map[string]windowGolden{
		"rows-sum-63":             {"7ce3e5898017e936", "17bcd11df9a14a25"},
		"range-sum-63":            {"042eb236e0a221c4", "1d45d8ebacb1ea7c"},
		"rows-sum-64":             {"5a9aeac3e32abd06", "141f4c99e85ce18e"},
		"range-sum-64":            {"476a7ef9049f9249", "ac5c14baa289c332"},
		"rows-sum-65":             {"4af95049228801a7", "292ccda8b222bded"},
		"range-sum-65":            {"ae2251ee4500df80", "7859546c95266627"},
		"rows-sum-192":            {"09e947495b554395", "312c6763f2c733f2"},
		"range-sum-192":           {"e46197f1114a5427", "dc6d94a0854bbfa1"},
		"minmax-rebuild-3-chunks": {"74bad5b233f962cd", "f9c3a69eb2a042b8"},
		"two-calls":               {"59f6855df7683127", "f4d29c10607e9daa"},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			rows := inOrderRows(n, p.keys)
			refs := make([][]int64, len(p.specs))
			for c := range p.specs {
				refs[c] = windowReference(p.fns[c], p.millis[c], p.nrows[c], rows)
			}
			for _, bs := range windowBlockSizes() {
				broker := kafka.NewBroker()
				op := changelogWindowOp(t, broker, p.specs...)
				out := map[int64]string{}
				feedWindow(t, op, rows, 0, n, bs, out)
				for i := range rows {
					want := make([]any, len(refs))
					for c := range refs {
						want[c] = refs[c][i]
					}
					if got := out[int64(i)]; got != fmt.Sprint(want) {
						t.Fatalf("batch=%d offset %d: emitted %s, want %v", bs, i, got, want)
					}
				}
				if got := (windowGolden{windowDigest(out, n), stateDigest(t, broker)}); got != goldens[p.name] {
					t.Fatalf("batch=%d: digests %+v, want the per-tuple reference's %+v", bs, got, goldens[p.name])
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
		t    types.Type
		args []any
		want func(i int) any
	}{
		{"SUM", types.Double, floats, func(i int) any {
			sum := 0.0
			for j := max(0, i-frameRows); j <= i; j++ {
				if f, ok := floats[j].(float64); ok {
					sum += f
				}
			}
			return sum
		}},
		{"MIN", types.Varchar, strs, func(i int) any {
			var least any
			for j := max(0, i-frameRows); j <= i; j++ {
				if s, ok := strs[j].(string); ok && (least == nil || s < least.(string)) {
					least = s
				}
			}
			return least
		}},
	}
	goldens := map[string]windowGolden{
		"SUM": {"4fc70d121c84e247", "2cf75531ffc5bdb2"},
		"MIN": {"bc994d89e1ef1e7d", "fe4415d2a3a3d764"},
	}
	for _, c := range cases {
		for _, bs := range []int{1, 7, 256, samza.DefaultBatchSize} {
			broker := kafka.NewBroker()
			spec := slidingSpec(c.fn, 0, frameRows, false)
			spec.T = c.t
			op := changelogWindowOp(t, broker, spec)
			out := map[int64]string{}
			feedWindowArgs(t, op, rows, c.args, 0, n, bs, out)
			for i := range rows {
				if got, want := out[int64(i)], fmt.Sprint([]any{c.want(i)}); got != want {
					t.Fatalf("%s batch=%d offset %d: emitted %s, want %s", c.fn, bs, i, got, want)
				}
			}
			if got := (windowGolden{windowDigest(out, n), stateDigest(t, broker)}); got != goldens[c.fn] {
				t.Fatalf("%s batch=%d: digests %+v, want the per-tuple reference's %+v", c.fn, bs, got, goldens[c.fn])
			}
		}
	}
}

// TestSlidingWindowCrashPointSweep crashes a changelog-backed window task at
// every point of an interval after a commit, then restores from the
// changelog, replays from the committed offset, and requires every row to
// come out exactly as the uncrashed run emits it, and the changelog to fold
// to the state the per-tuple reference left after the same crash. The
// write-through changelog holds every block the task finished, so the replay
// must recognise the already-applied offsets; a block whose writes reached
// the log split would restore a state row whose accumulator and deque
// disagree, and the sums after the crash would stay wrong.
func TestSlidingWindowCrashPointSweep(t *testing.T) {
	sweeps := []struct {
		name        string
		batch       int
		frameMillis int64
		n, commitAt int
		crashes     []int
	}{
		// Five contributions per partition: expiry from the first commit on.
		{name: "block-1", batch: 1, frameMillis: 120, n: 160, commitAt: 50, crashes: seq(51, 120)},
		// 80 per partition: the deque spans chunks, heads get deleted.
		{name: "block-1-multi-chunk", batch: 1, frameMillis: 1590, n: 400, commitAt: 200, crashes: seq(201, 270)},
		{name: "block-7", batch: 7, frameMillis: 120, n: 160, commitAt: 49, crashes: seq(50, 120)},
		{name: "block-7-multi-chunk", batch: 7, frameMillis: 1590, n: 400, commitAt: 196, crashes: seq(197, 270)},
		{name: "block-256", batch: 256, frameMillis: 1590, n: 1400, commitAt: 512, crashes: []int{600, 768, 900, 1024, 1280}},
	}
	// The state a crashed-and-replayed run leaves does not depend on where
	// the crash fell, only on the input: one golden per (frame, n).
	goldens := map[[2]int64]windowGolden{
		{120, 160}:   {"7169b2233e188cab", "5ab6766d1e669d26"},
		{1590, 400}:  {"788417414f7f20d1", "1342327d89be9b5d"},
		{1590, 1400}: {"eaa5bac3ed55f354", "26fae69bf9b00ef5"},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			want := goldens[[2]int64{sw.frameMillis, int64(sw.n)}]
			spec := slidingSpec("SUM", sw.frameMillis, 0, false)
			rows := inOrderRows(sw.n, 2)
			ref := windowReference("SUM", sw.frameMillis, 0, rows)
			diverged := 0
			for _, crashAt := range sw.crashes {
				broker := kafka.NewBroker()
				op := changelogWindowOp(t, broker, spec)
				out := map[int64]string{}
				feedWindow(t, op, rows, 0, sw.commitAt, sw.batch, out)
				// The commit: offsets up to sw.commitAt are checkpointed.
				feedWindow(t, op, rows, sw.commitAt, crashAt, sw.batch, out)
				// Crash: restart from the changelog and the committed offset.
				op = changelogWindowOp(t, broker, spec)
				feedWindow(t, op, rows, sw.commitAt, sw.n, sw.batch, out)
				if got := (windowGolden{windowDigest(out, sw.n), stateDigest(t, broker)}); got != want {
					t.Errorf("crash at %d: digests %+v, want the per-tuple reference's %+v", crashAt, got, want)
				}
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

// FuzzSlidingStateDecode feeds arbitrary bytes to the readers of the two
// sliding-window formats that reach the changelog, which a restore decodes
// at Open — the state row (decodeCallState, under each of several calls)
// and the chunk image (trimChunk, entrySize, entryValue). Corrupt bytes must come back as an
// error, never a panic, and a state row that decodes must carry cursors
// inside a chunk. Seeded with the rows real runs store — int64 MIN, string
// MIN and MAX, float SUM, AVG and a UDAF, int64 and ObjectSerde entries
// alike — and with the three inputs that used to panic or slip through.
func FuzzSlidingStateDecode(f *testing.F) {
	registerTestUDAF()
	const n = 2*chunkCap + 5
	rows := inOrderRows(n, 1)
	strs, floats := make([]any, n), make([]any, n)
	for i := range strs {
		strs[i], floats[i] = fmt.Sprintf("k%03d", i*37%101), float64(i%17)+0.25
	}
	var decoders []*SlidingWindowOp
	for _, c := range []struct {
		fn   string
		t    types.Type
		args []any
	}{
		{"MIN", types.Bigint, nil},
		{"MIN", types.Varchar, strs},
		{"MAX", types.Varchar, strs},
		{"SUM", types.Double, floats},
		{"AVG", types.Double, floats},
		{"SUMSQ", types.Bigint, nil},
	} {
		spec := slidingSpec(c.fn, 0, n, false)
		spec.T = c.t
		broker := kafka.NewBroker()
		store, err := kv.NewChangelogStore(kv.NewStore(), broker, windowChangelog, 1, 0)
		if err != nil {
			f.Fatal(err)
		}
		op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{spec})
		if err != nil {
			f.Fatal(err)
		}
		if err := op.Open(&OpContext{Store: func(string) kv.Store { return store }}); err != nil {
			f.Fatal(err)
		}
		b := &TupleBlock{}
		b.Begin("in", 0, windowKinds(c.args))
		for k, r := range rows {
			var arg any = r.units
			if c.args != nil {
				arg = c.args[k]
			}
			if err := b.AppendRow([]any{r.ts, arg, r.pid}, r.ts, nil, int64(k)); err != nil {
				f.Fatal(err)
			}
		}
		b.Finish()
		if err := op.ProcessBlock(0, b, func(*TupleBlock) error { return nil }); err != nil {
			f.Fatal(err)
		}
		// The seeds are what a restore reads: the state row and each chunk,
		// in key order.
		folded := changelogState(f, broker)
		keys := make([]string, 0, len(folded))
		for k := range folded {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var state []byte
		for _, k := range keys {
			if k[0] == 's' {
				state = folded[k]
			}
		}
		for _, k := range keys {
			if k[0] == 'm' {
				f.Add(state, folded[k])
			}
		}
		decoders = append(decoders, op)
	}
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
	if err != nil {
		f.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		f.Fatal(err)
	}
	decoders = append(decoders, op)
	// Cursors past 2^63 on the wire: negative once converted, so under every
	// upper bound.
	for _, ws := range []*windowState{
		{acc: op.calls[0].newAcc(), count: 1, tailLen: -1},
		{acc: op.calls[0].newAcc(), count: 1, tailSeq: 1, headPos: -5},
	} {
		state, err := op.appendState(nil, ws)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(state, []byte{})
	}
	// An ObjectSerde entry whose row is empty: no value to return.
	f.Add([]byte{}, append(make([]byte, entryHeader), 1, 0))
	f.Fuzz(func(t *testing.T, state, chunk []byte) {
		n := chunkCap
		for _, d := range decoders {
			var ws windowState
			d.calls[0].initState(&ws)
			if err := d.decodeCallState(d.calls[0], &ws, state); err == nil {
				if ws.count < 0 || ws.headPos < 0 || ws.headPos >= chunkCap || ws.tailLen < 0 || ws.tailLen > chunkCap || ws.headSeq > ws.tailSeq {
					t.Fatalf("%s accepted state row with count %d, head %d+%d, tail %d+%d", d.calls[0].spec.Fn, ws.count, ws.headSeq, ws.headPos, ws.tailSeq, ws.tailLen)
				}
				n = ws.tailLen
			}
		}
		img, err := trimChunk(chunk, n, 0)
		if err != nil {
			img = chunk // walk whatever whole entries the bytes start with
		}
		for len(img) > 0 {
			size := entrySize(img)
			if size < 0 {
				if err == nil {
					t.Fatalf("trimChunk accepted %d entries but entry at -%d is not whole", n, len(img))
				}
				return
			}
			if size < entryHeader || size > len(img) {
				t.Fatalf("entrySize %d for %d remaining bytes", size, len(img))
			}
			_, _ = op.entryValue(img) // must not panic
			img = img[size:]
		}
	})
}

// TestSlidingWindowChangelogBytesPerRow pins the window's write
// amplification: the key and value bytes the changelog receives per input
// row, on the benchmark's window_sum shape at small scale — zipf keys
// (s = 1.1 over 10 000 keys), a 10 ms step, a five-minute RANGE frame,
// 256-row blocks. The topic is created uncompacted, so every record written
// is counted. A block's tail-chunk write carries only the entries the store
// does not hold yet, and reads 127.0 B/row: 52.8 of state rows, 49.5 of
// tail puts after a front trim and 24.6 of appends. When every block re-put
// the whole tail chunk of each partition it touched, it read 289.5 B/row.
func TestSlidingWindowChangelogBytesPerRow(t *testing.T) {
	const (
		n     = 90_000 // three frames' worth of rows
		keys  = 10_000
		block = 256
	)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
	rows := make([]windowRow, n)
	for i := range rows {
		rows[i] = windowRow{ts: 1_600_000_000_000 + int64(i)*10, units: rng.Int63n(100) + 1, pid: int64(zipf.Uint64())}
	}
	broker := kafka.NewBroker()
	if err := broker.CreateTopic(windowChangelog, kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	op := changelogWindowOp(t, broker, slidingSpec("SUM", 5*60*1000, 0, false))
	feedWindow(t, op, rows, 0, n, block, map[int64]string{})

	tp := kafka.TopicPartition{Topic: windowChangelog, Partition: 0}
	var written, records, appends int64
	var buf []kafka.Record
	for off := int64(0); ; {
		var err error
		if buf, err = broker.Read(buf[:0], tp, off, 4096); err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			break
		}
		for _, m := range buf {
			written += int64(len(m.Key) + len(m.Value))
			records++
			if m.Append {
				appends++
			}
		}
		off = buf[len(buf)-1].Offset + 1
	}
	perRow := float64(written) / n
	t.Logf("changelog: %.1f B/row in %.3f records/row (%.3f appends/row)", perRow, float64(records)/n, float64(appends)/n)
	const bound = 130
	if perRow > bound {
		t.Errorf("changelog takes %.1f B/row, bound %d", perRow, bound)
	}
}

// TestSlidingWindowBooksStateAccess pins what the window books under the
// window store's metric names: one get per distinct partition per block, one
// put per put or append record it writes to the changelog and one delete
// per chunk tombstone. Two partitions of 150 rows each, a ROWS frame of 70,
// blocks of 50: both partitions in every one of the six blocks, two rolled
// chunks per partition, the first of them expired.
func TestSlidingWindowBooksStateAccess(t *testing.T) {
	const n, block = 300, 50
	broker := kafka.NewBroker()
	cl, err := kv.NewChangelogStore(kv.NewStore(), broker, windowChangelog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 0, 70, false)})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if err := op.Open(&OpContext{Store: func(string) kv.Store { return cl }, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	feedWindow(t, op, inOrderRows(n, 2), 0, n, block, map[int64]string{})

	var puts, appends, tombstones int64
	recs, err := broker.Read(nil, kafka.TopicPartition{Topic: windowChangelog}, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range recs {
		switch {
		case m.Value == nil:
			tombstones++
		case m.Append:
			appends++
		default:
			puts++
		}
	}
	// Per partition: six state rows; a tail put in blocks 1, 3 and 6 (a
	// new tail chunk) and an append in the other three; the closing append
	// of chunk 0 (entry 65, block 3) and of chunk 1 (entry 129, block 6);
	// the tombstone of chunk 0, whose last entry expires at entry 135.
	if puts != 2*9 || appends != 2*5 || tombstones != 2 {
		t.Fatalf("changelog holds %d puts, %d appends, %d tombstones", puts, appends, tombstones)
	}
	h := reg.Snapshot().Histograms
	for _, c := range []struct {
		op   string
		want int64
	}{{"get", 6 * 2}, {"put", puts + appends}, {"delete", tombstones}} {
		if got := h["store."+SlidingStoreName+"."+c.op+"-ns"].Count; got != c.want {
			t.Errorf("%s-ns books %d operations, want %d", c.op, got, c.want)
		}
	}
}

// TestSlidingWindowResidentMatchesRestore runs disordered input — one row
// in six mildly late (an insert into the tail chunk), one in forty older
// than the whole tail chunk (a rebuild of the deque) — through a live
// changelog-backed window, and after every k blocks opens a fresh operator
// from what the changelog holds at that point. Until the next restore
// point both take the same blocks, and the fresh one must emit exactly the
// rows and write exactly the changelog records the live one does: resident
// state, chunk images and tail cursors included, the live operator must
// hold nothing a restore does not rebuild. SUM over RANGE and ROWS frames
// and MIN, which rebuilds from every retained chunk, at several block
// sizes.
func TestSlidingWindowResidentMatchesRestore(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(11))
	rows := make([]windowRow, n)
	for i := range rows {
		ts := int64(100_000 + i*10)
		switch {
		case rng.Intn(6) == 0:
			ts -= int64(rng.Intn(400))
		case rng.Intn(40) == 0:
			ts -= int64(1000 + rng.Intn(1500))
		}
		rows[i] = windowRow{ts, int64(rng.Intn(1000)), int64(rng.Intn(2))}
	}
	for _, spec := range []*validate.BoundAnalytic{
		slidingSpec("SUM", 3000, 0, false),
		slidingSpec("SUM", 0, 150, false),
		slidingSpec("MIN", 3000, 0, false),
	} {
		for _, bs := range []int{1, 7, 256, samza.DefaultBatchSize} {
			k := max(1, 60/bs)
			broker := kafka.NewBroker()
			live := changelogWindowOp(t, broker, spec)
			var fresh *SlidingWindowOp
			var freshLog *kafka.Broker
			for blk, from := 0, 0; from < n; blk, from = blk+1, from+bs {
				to := min(from+bs, n)
				if blk > 0 && blk%k == 0 {
					fresh, freshLog = restoredWindowOp(t, broker, spec)
				}
				liveOut, freshOut := map[int64]string{}, map[int64]string{}
				liveFrom := changelogEnd(t, broker)
				feedWindow(t, live, rows, from, to, bs, liveOut)
				if fresh == nil {
					continue
				}
				freshFrom := changelogEnd(t, freshLog)
				feedWindow(t, fresh, rows, from, to, bs, freshOut)
				if got, want := fmt.Sprint(freshOut), fmt.Sprint(liveOut); got != want {
					t.Fatalf("%s frame %d+%d batch=%d: block at %d emits %s restored, %s live", spec.Fn, spec.FrameMillis, spec.FrameRows, bs, from, got, want)
				}
				if got, want := changelogSince(t, freshLog, freshFrom), changelogSince(t, broker, liveFrom); got != want {
					t.Fatalf("%s frame %d+%d batch=%d: block at %d writes\n%s\nrestored, live\n%s", spec.Fn, spec.FrameMillis, spec.FrameRows, bs, from, got, want)
				}
			}
			if fresh == nil {
				t.Fatalf("batch=%d: no restore point", bs)
			}
		}
	}
}

// restoredWindowOp opens a window operator over a store holding what the
// window changelog on broker folds to, as a restored task store does; the
// operator writes to a changelog of its own, on the broker it returns.
func restoredWindowOp(t *testing.T, broker *kafka.Broker, specs ...*validate.BoundAnalytic) (*SlidingWindowOp, *kafka.Broker) {
	t.Helper()
	store := kv.NewStore()
	for k, v := range changelogState(t, broker) {
		store.Put([]byte(k), v)
	}
	own := kafka.NewBroker()
	cl, err := kv.NewChangelogStore(store, own, windowChangelog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewSlidingWindowOp(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(&OpContext{Store: func(string) kv.Store { return cl }}); err != nil {
		t.Fatal(err)
	}
	return op, own
}

// changelogEnd is the window changelog's high watermark on broker.
func changelogEnd(t *testing.T, broker *kafka.Broker) int64 {
	t.Helper()
	hwm, err := broker.HighWatermark(kafka.TopicPartition{Topic: windowChangelog})
	if err != nil {
		t.Fatal(err)
	}
	return hwm
}

// changelogSince renders the window changelog records on broker from offset
// from on, one per line.
func changelogSince(t *testing.T, broker *kafka.Broker, from int64) string {
	t.Helper()
	recs, err := broker.Read(nil, kafka.TopicPartition{Topic: windowChangelog}, from, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, m := range recs {
		fmt.Fprintf(&sb, "%x %v %x %t\n", m.Key, m.Value == nil, m.Value, m.Append)
	}
	return sb.String()
}

// TestSlidingWindowFailedBlockPoisons fails a block half way — its first row
// folds, its second has a string where the ORDER BY timestamp belongs — and
// requires every later block to fail with that error: the resident state
// holds half a block the changelog never saw, and only a restore from the
// changelog may go on from there.
func TestSlidingWindowFailedBlockPoisons(t *testing.T) {
	broker := kafka.NewBroker()
	op := changelogWindowOp(t, broker, slidingSpec("SUM", 1000, 0, false))
	emit := func(*TupleBlock) error { return nil }
	bad := blockOf(t, &TupleBlock{}, []vec.Kind{vec.Any, vec.Int64, vec.Int64},
		[][]any{{int64(100), int64(4), int64(7)}, {"late", int64(5), int64(7)}}, -1, 0)
	err := op.ProcessBlock(0, bad, emit)
	if err == nil || !strings.Contains(err.Error(), "ORDER BY value is string") {
		t.Fatalf("bad block: error %v", err)
	}
	good := blockOf(t, &TupleBlock{}, int64Kinds, [][]any{{int64(200), int64(1), int64(8)}}, 0, 2)
	if err2 := op.ProcessBlock(0, good, emit); err2 != err {
		t.Fatalf("block after a failed one: error %v, want %v", err2, err)
	}
	if got := foldedChangelog(t, broker); len(got) != 0 {
		t.Fatalf("failed block reached the changelog: %v", got)
	}
}
