package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/types"
	wl "samzasql/internal/workload"
)

// Fixed shape of every run (see README.md, "Fixed shape").
const (
	partitions   = 8
	containers   = 2
	startTs      = int64(1_600_000_000_000)
	tsStepMillis = 10
	windowMillis = 5 * 60 * 1000
	users        = 10_000 // distinct Clicks.userId values
)

// A workload is one standing query plus the seeded input that feeds it.
type workload struct {
	name string
	sql  string
	// clicks selects the Clicks stream (keyed by userId) over Orders (keyed
	// by productId).
	clicks bool
	// products is the Products relation's row count; 0 loads no relation.
	products int
	// keys is how many distinct productId values the stream draws; zipf
	// draws them with s = 1.1 instead of uniformly.
	keys int
	zipf bool
	// cols is the arity of the query's output rows, seqCol the column that
	// carries the row's sequence number.
	cols, seqCol int
	// expect fills row with the reference output of input row seq and reports
	// whether the query emits a row for it at all.
	expect func(d *dataset, seq int, row []int64) bool

	// The constants below are frozen from measurements of the seed commit
	// (README.md, "Frozen rates"); they are never derived at run time.
	//
	// drainRows is the backlog one drain pre-loads: between one and two
	// seconds of work at the seed's drain rate, as much as memory allows.
	drainRows int
	// rungs are the open-loop input rates (rows/s) of the low, mid and high
	// rung: 25 %, 50 % and 75 % of the highest rate the seed sustained open
	// loop, two significant figures.
	rungs [3]int
	// limitMs is the p99 event-latency limit a sustained rung must meet.
	limitMs float64
}

var rungNames = [3]string{"low", "mid", "high"}

var workloads = []*workload{
	{
		name:   "filter",
		sql:    "SELECT STREAM rowtime, orderId, productId, units FROM Orders WHERE units > 50",
		keys:   100,
		cols:   4,
		seqCol: 1,
		expect: func(d *dataset, seq int, row []int64) bool {
			if d.units[seq] <= 50 {
				return false
			}
			row[0], row[1], row[2], row[3] = d.ts(seq), int64(seq), int64(d.product[seq]), int64(d.units[seq])
			return true
		},
		drainRows: 4_000_000,
		rungs:     [3]int{100_000, 200_000, 300_000},
		limitMs:   100,
	},
	{
		name: "enrich_join",
		sql: `SELECT STREAM Orders.orderId, Products.supplierId
FROM Orders JOIN Products ON Orders.productId = Products.productId`,
		products:  100_000,
		keys:      100_000,
		cols:      2,
		expect:    expectJoin,
		drainRows: 2_000_000,
		rungs:     [3]int{55_000, 110_000, 160_000},
		limitMs:   100,
	},
	{
		name: "window_sum",
		sql: `SELECT STREAM orderId, SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
  RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes
FROM Orders`,
		keys: 10_000,
		zipf: true,
		cols: 2,
		expect: func(d *dataset, seq int, row []int64) bool {
			row[0], row[1] = int64(seq), d.windowSum[seq]
			return true
		},
		drainRows: 700_000,
		rungs:     [3]int{25_000, 50_000, 75_000},
		limitMs:   100,
	},
	{
		name: "repart_join",
		sql: `SELECT STREAM Clicks.clickId, Products.supplierId
FROM Clicks JOIN Products ON Clicks.productId = Products.productId`,
		clicks:    true,
		products:  100,
		keys:      100,
		cols:      2,
		expect:    expectJoin,
		drainRows: 2_500_000,
		rungs:     [3]int{55_000, 110_000, 160_000},
		limitMs:   100,
	},
}

func expectJoin(d *dataset, seq int, row []int64) bool {
	row[0], row[1] = int64(seq), d.supplier[d.product[seq]]
	return true
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// topic is the workload's input topic, as the catalog names it.
func (w *workload) topic() string {
	if w.clicks {
		return "clicks"
	}
	return "orders"
}

// clicksSchema is the wire schema of the Clicks stream: an Orders-sized row
// published keyed by userId, so a join on productId has to repartition it.
func clicksSchema() *avro.Schema {
	return avro.Record("Clicks",
		avro.F("rowtime", avro.Long()),
		avro.F("userId", avro.Long()),
		avro.F("productId", avro.Long()),
		avro.F("clickId", avro.Long()),
		avro.F("pad", avro.String()),
	)
}

// newCatalog registers the evaluation schema plus the benchmark's Clicks
// stream.
func newCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	if err := wl.DefineCatalog(cat); err != nil {
		return nil, err
	}
	err := cat.Define(&catalog.Object{
		Kind: catalog.Stream, Name: "Clicks", Topic: "clicks",
		TimestampCol: "rowtime", PartitionKeyCol: "userId",
		Row: types.NewRowType(
			types.Column{Name: "rowtime", Type: types.Timestamp},
			types.Column{Name: "userId", Type: types.Bigint},
			types.Column{Name: "productId", Type: types.Bigint},
			types.Column{Name: "clickId", Type: types.Bigint},
			types.Column{Name: "pad", Type: types.Varchar},
		),
	})
	return cat, err
}

// dataset is one workload's generated input and what is needed to compute
// the reference output from it. The encoded rows sit back to back in one
// pointer-free arena and become kafka messages only when they are sent
// (fill), so that millions of generated rows add nothing to what the garbage
// collector has to mark while the system under test runs.
type dataset struct {
	w *workload
	n int
	// Row seq is arena[off[seq]:off[seq+1]], keyed by keys[keyOf[seq]].
	arena []byte
	off   []uint32
	keyOf []int32
	keys  [][]byte
	// probe is one extra input row with sequence number -1 that always
	// produces an output row and touches no state the numbered rows read;
	// the setup phase times it through a freshly started job.
	probe    kafka.Message
	relation []kafka.Message

	product   []int32 // productId by seq
	units     []int32 // Orders.units by seq
	supplier  []int64 // Products.supplierId by productId
	windowSum []int64 // window_sum reference by seq
}

// fill appends the messages of rows [from, to) to dst.
func (d *dataset) fill(dst []kafka.Message, from, to int) []kafka.Message {
	for seq := from; seq < to; seq++ {
		start, end := d.off[seq], d.off[seq+1]
		dst = append(dst, kafka.Message{
			Partition: -1,
			Key:       d.keys[d.keyOf[seq]],
			Value:     d.arena[start:end:end],
			Timestamp: d.ts(seq),
		})
	}
	return dst
}

// ts is the event time of row seq.
func (d *dataset) ts(seq int) int64 { return startTs + int64(seq+1)*tsStepMillis }

// outputs counts the reference output rows of input rows [from, to).
func (d *dataset) outputs(from, to int) int {
	n := 0
	row := make([]int64, d.w.cols)
	for seq := from; seq < to; seq++ {
		if d.w.expect(d, seq, row) {
			n++
		}
	}
	return n
}

const padAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// generate builds n input rows for w from seed. Rows are Avro-encoded here,
// by hand (a record is its fields back to back, a long is a zig-zag varint,
// which is what binary.AppendVarint writes), because encoding millions of
// rows through Codec.EncodeRow boxes every field; the first and last row are
// decoded back through the real codec to prove the bytes are what it reads.
func generate(w *workload, seed int64, n int) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{w: w, n: n, product: make([]int32, n), off: make([]uint32, n+1)}
	d.keyOf = d.product
	if w.clicks {
		d.keyOf = make([]int32, n)
	} else {
		d.units = make([]int32, n)
	}

	pool := make([]byte, 1<<16)
	for i := range pool {
		pool[i] = padAlphabet[rng.Intn(len(padAlphabet))]
	}
	// Pad so that a row with wide field values is the 100 bytes of §5.1.
	padLen := wl.TargetMessageBytes - len(appendRow(nil, startTs, int64(w.keys), 1<<40, 100, nil)) - 1
	d.keys = decimalKeys(max(w.keys+1, users))

	var zipf *rand.Zipf
	if w.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(w.keys-1))
	}
	d.arena = make([]byte, 0, n*wl.TargetMessageBytes)
	for seq := 0; seq < n; seq++ {
		var pid int64
		if zipf != nil {
			pid = int64(zipf.Uint64())
		} else {
			pid = rng.Int63n(int64(w.keys))
		}
		d.product[seq] = int32(pid)
		off := rng.Intn(len(pool) - padLen)
		pad := pool[off : off+padLen]
		if w.clicks {
			uid := rng.Int63n(users)
			d.keyOf[seq] = int32(uid)
			d.arena = appendRow(d.arena, d.ts(seq), uid, pid, int64(seq), pad)
		} else {
			u := rng.Int63n(100) + 1
			d.units[seq] = int32(u)
			d.arena = appendRow(d.arena, d.ts(seq), pid, int64(seq), u, pad)
		}
		d.off[seq+1] = uint32(len(d.arena))
	}

	// The probe row: units = 100 passes the filter; productId 0 joins; the
	// window workload gives it a productId no numbered row draws, so it
	// lands in a window partition of its own.
	probePid := int64(0)
	if w.products == 0 {
		probePid = int64(w.keys)
	}
	probeKey := d.keys[probePid]
	var probeVal []byte
	if w.clicks {
		probeKey = d.keys[0]
		probeVal = appendRow(nil, startTs, 0, probePid, -1, pool[:padLen])
	} else {
		probeVal = appendRow(nil, startTs, probePid, -1, 100, pool[:padLen])
	}
	d.probe = kafka.Message{Partition: -1, Key: probeKey, Value: probeVal, Timestamp: startTs}

	if w.products > 0 {
		d.supplier = make([]int64, w.products)
		d.relation = make([]kafka.Message, w.products)
		codec := avro.MustCodec(wl.ProductsSchema())
		for id := range d.relation {
			d.supplier[id] = rng.Int63n(1000)
			value, err := codec.EncodeRow([]any{int64(id), "product-" + strconv.Itoa(id), d.supplier[id]})
			if err != nil {
				return nil, err
			}
			d.relation[id] = kafka.Message{Partition: -1, Key: []byte(strconv.Itoa(id)), Value: value}
		}
	}
	if w.name == "window_sum" {
		d.windowSum = slidingSums(d)
	}
	return d, d.checkEncoding()
}

// appendRow appends the Avro encoding of a five-field row: four longs and
// the pad string.
func appendRow(dst []byte, a, b, c, e int64, pad []byte) []byte {
	dst = binary.AppendVarint(dst, a)
	dst = binary.AppendVarint(dst, b)
	dst = binary.AppendVarint(dst, c)
	dst = binary.AppendVarint(dst, e)
	dst = binary.AppendVarint(dst, int64(len(pad)))
	return append(dst, pad...)
}

func decimalKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(strconv.Itoa(i))
	}
	return keys
}

// checkEncoding decodes the first and last generated row with the stream's
// real codec and compares the fields the reference is computed from.
func (d *dataset) checkEncoding() error {
	schema := wl.OrdersSchema()
	if d.w.clicks {
		schema = clicksSchema()
	}
	codec := avro.MustCodec(schema)
	for _, seq := range []int{0, d.n - 1} {
		if seq < 0 {
			continue
		}
		row, err := codec.DecodeRow(d.arena[d.off[seq]:d.off[seq+1]], nil)
		if err != nil {
			return fmt.Errorf("generated row %d does not decode: %w", seq, err)
		}
		want := []any{d.ts(seq), int64(d.product[seq]), int64(seq)}
		got := []any{row[0], row[1], row[2]}
		if d.w.clicks {
			got = []any{row[0], row[2], row[3]}
		} else if row[3] != int64(d.units[seq]) {
			return fmt.Errorf("generated row %d decodes to units %v, want %d", seq, row[3], d.units[seq])
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("generated row %d decodes to %v, want %v", seq, got, want)
			}
		}
	}
	return nil
}

// slidingSums is the window_sum reference: for every row, the sum of units
// over the rows of the same productId whose event time lies within the five
// minutes up to and including the row's own.
func slidingSums(d *dataset) []int64 {
	type window struct {
		rows []int32 // seqs still inside the frame, oldest first
		head int
		sum  int64
	}
	wins := make([]window, d.w.keys)
	sums := make([]int64, d.n)
	for seq := range sums {
		win := &wins[d.product[seq]]
		cutoff := d.ts(seq) - windowMillis
		for win.head < len(win.rows) && d.ts(int(win.rows[win.head])) < cutoff {
			win.sum -= int64(d.units[win.rows[win.head]])
			win.head++
		}
		win.sum += int64(d.units[seq])
		win.rows = append(win.rows, int32(seq))
		sums[seq] = win.sum
	}
	return sums
}
