package operators

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"samzasql/internal/samza"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// relEvent is one step of a relation table scenario: a relation row put, a
// tombstone, or a stream row probing the relation. id < 0 is a NULL key.
type relEvent struct {
	kind int
	id   int64
	name string // put: the row's VARCHAR column
	n    int64  // put: the row's BIGINT column; probe: the stream row's sequence number
}

const (
	evPut = iota
	evDelete
	evProbe
)

// relScenario generates a seeded event sequence over keys distinct ids: a
// load of every key (more than 100 000 of them, so the index doubles from
// its first size up past that many rows), a pass deleting nine in ten of
// them, and a churn of overwrites, re-inserts and deletes whose names change
// length, so the dead string bytes overtake the live ones more than once.
// Stream probes, NULL keys on both sides and tombstones of keys the relation
// never held are mixed in throughout.
func relScenario(seed int64, keys int) []relEvent {
	rng := rand.New(rand.NewSource(seed))
	var evs []relEvent
	seq := int64(0)
	name := func() string {
		return "n" + strconv.Itoa(rng.Int()) + "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"[:rng.Intn(40)]
	}
	put := func(id int64) { evs = append(evs, relEvent{kind: evPut, id: id, name: name(), n: rng.Int63n(1000)}) }
	noise := func() {
		switch p := rng.Intn(100); {
		case p < 30:
			id := rng.Int63n(int64(keys) + 500) // some never held
			if rng.Intn(20) == 0 {
				id = -1
			}
			evs = append(evs, relEvent{kind: evProbe, id: id, n: seq})
			seq++
		case p == 30:
			put(-1)
		case p == 31:
			evs = append(evs, relEvent{kind: evDelete, id: int64(keys) + rng.Int63n(500)})
		}
	}
	ids := rng.Perm(keys)
	for _, id := range ids {
		put(int64(id))
		noise()
	}
	for _, id := range ids[keys/10:] { // the first rows stay live
		evs = append(evs, relEvent{kind: evDelete, id: int64(id)})
		if rng.Intn(10) == 0 {
			put(int64(id)) // re-insert
		}
		noise()
	}
	for i := 0; i < keys; i++ {
		id := int64(rng.Intn(keys))
		if rng.Intn(4) == 0 {
			evs = append(evs, relEvent{kind: evDelete, id: id})
		} else {
			put(id)
		}
		noise()
	}
	return evs
}

// relShape is one join shape of the differential test: a relation [key,
// name VARCHAR, n BIGINT] joined on its key with a stream [rowtime, key,
// seq], by a bare key of the relation key's type or by a computed one.
type relShape struct {
	name     string
	keyType  types.Type
	computed bool
}

func (s relShape) keyValue(id int64) any {
	if id < 0 {
		return nil
	}
	if s.keyType == types.Varchar {
		return "sku-" + strconv.FormatInt(id, 10)
	}
	return id
}

func (s relShape) messageKey(id int64) []byte {
	if s.keyType == types.Varchar {
		return []byte("sku-" + strconv.FormatInt(id, 10))
	}
	return []byte(strconv.FormatInt(id, 10))
}

// keyBytes is how many bytes of the table's string arenas a live key takes:
// those of its state key, which the table keeps itself, or a VARCHAR key's,
// held once, in the relation's key column.
func (s relShape) keyBytes(id int64) int {
	switch {
	case s.computed:
		k, _ := serde.ObjectSerde{}.Encode([]any{id}) // an int64 always encodes
		return len("r:") + len(k)
	case s.keyType == types.Varchar:
		return len(s.keyValue(id).(string))
	}
	return 0
}

func (s relShape) op(t *testing.T) *StreamRelationJoinOp {
	t.Helper()
	stream := types.NewRowType(
		types.Column{Name: "rowtime", Type: types.Timestamp},
		types.Column{Name: "key", Type: s.keyType},
		types.Column{Name: "seq", Type: types.Bigint},
	)
	relation := types.NewRowType(
		types.Column{Name: "key", Type: s.keyType},
		types.Column{Name: "name", Type: types.Varchar},
		types.Column{Name: "n", Type: types.Bigint},
	)
	var streamKey expr.Expr = &expr.ColRef{Idx: 1, Name: "key", T: s.keyType}
	if s.computed {
		streamKey = &expr.Binary{Op: expr.Add, L: streamKey, R: &expr.Const{V: int64(0), T: types.Bigint}, T: types.Bigint}
	}
	relKey := &expr.ColRef{Idx: 3, Name: "key", T: s.keyType}
	info := &validate.JoinInfo{
		On:      &expr.Binary{Op: expr.Eq, L: streamKey, R: relKey, T: types.Boolean},
		LeftKey: streamKey, RightKey: relKey,
	}
	op, err := NewStreamRelationJoinOp(info, stream, relation, true)
	if err != nil {
		t.Fatal(err)
	}
	op.SetRelationKeyedBy(s.keyType)
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	return op
}

// relRow is the reference's row of one key.
type relRow struct {
	name string
	n    int64
}

// TestRelationTableDifferential runs relScenario through the stream-relation
// join, relation rows and stream rows cut into blocks of 1, 7, 64 and
// DefaultBatchSize rows and tombstones applied between them, for a BIGINT,
// a VARCHAR and a computed join key. The reference is a Go map folded in
// offset order: every stream block must join exactly the rows the map
// holds at that point, and the table's string arenas must stay within twice
// the live bytes the map accounts for, which only the reclaim rule keeps
// them to.
func TestRelationTableDifferential(t *testing.T) {
	keys := 110_000
	if testing.Short() {
		keys = 20_000
	}
	evs := relScenario(0x7ab1e, keys)
	shapes := []relShape{
		{name: "bigint", keyType: types.Bigint},
		{name: "varchar", keyType: types.Varchar},
		{name: "computed", keyType: types.Bigint, computed: true},
	}
	for _, shape := range shapes {
		for _, bs := range []int{1, 7, 64, samza.DefaultBatchSize} {
			t.Run(fmt.Sprintf("%s/block-%d", shape.name, bs), func(t *testing.T) {
				runRelScenario(t, shape, evs, bs, keys)
			})
		}
	}
}

func runRelScenario(t *testing.T, shape relShape, evs []relEvent, bs, keys int) {
	op := shape.op(t)
	relKinds := vec.KindsOf(types.NewRowType(
		types.Column{Name: "key", Type: shape.keyType},
		types.Column{Name: "name", Type: types.Varchar},
		types.Column{Name: "n", Type: types.Bigint},
	))
	streamKinds := []vec.Kind{vec.Int64, relKinds[0], vec.Int64}
	ref := map[int64]relRow{}
	live, written := 0, 0
	// want holds the joined rows the reference expects of the pending
	// stream block, as seq, then name and n of the relation row.
	var want []relEvent
	emit := func(out *TupleBlock) error {
		if len(out.Sel) != len(want) {
			return fmt.Errorf("joined %d rows, want %d", len(out.Sel), len(want))
		}
		for i, r := range out.Sel {
			w := want[i]
			if out.Cols[2].I64[r] != w.id || string(out.Cols[4].Str(r)) != w.name || out.Cols[5].I64[r] != w.n {
				return fmt.Errorf("stream row %d joined %q/%d, want stream row %d joined %q/%d",
					out.Cols[2].I64[r], out.Cols[4].Str(r), out.Cols[5].I64[r], w.id, w.name, w.n)
			}
		}
		want = want[:0]
		return nil
	}
	arena := func() int {
		return len(op.rel.cols[0].Data) + len(op.rel.cols[1].Data) + len(op.rel.strs.Data)
	}
	check := func(at int) {
		if a := arena(); a > 2*live {
			t.Fatalf("event %d: string arenas hold %d bytes, %d of them live: dead bytes past the live ones", at, a, live)
		}
		if op.rel.n != len(ref) {
			t.Fatalf("event %d: table holds %d rows, the reference %d", at, op.rel.n, len(ref))
		}
	}
	// checkAll looks every key the reference holds up in the table.
	checkAll := func(at int) {
		for id, want := range ref {
			k := tableKey{bits: uint64(id)}
			switch {
			case shape.computed:
				var err error
				if op.kbuf, err = op.appendRelKey(op.kbuf[:0], id); err != nil {
					t.Fatal(err)
				}
				k = tableKey{str: op.kbuf}
			case shape.keyType == types.Varchar:
				k = tableKey{str: []byte(shape.keyValue(id).(string))}
			}
			row := op.rel.get(k)
			if row < 0 {
				t.Fatalf("event %d: key %d lost", at, id)
			}
			if name, n := string(op.rel.cols[1].Str(row)), op.rel.cols[2].I64[row]; name != want.name || n != want.n {
				t.Fatalf("event %d: key %d holds %q/%d, want %q/%d", at, id, name, n, want.name, want.n)
			}
		}
	}

	blk := &TupleBlock{}
	pending := -1 // the kind of the rows in blk, -1 when empty
	flush := func(at int) {
		if pending < 0 {
			return
		}
		blk.Finish()
		side := RightSide
		if pending == evProbe {
			side = LeftSide
		}
		if err := op.ProcessBlock(side, blk, emit); err != nil {
			t.Fatalf("event %d: %v", at, err)
		}
		pending = -1
		check(at)
	}
	for i, ev := range evs {
		if ev.kind == evDelete || ev.kind != pending || blk.N == bs || i%(len(evs)/3) == 0 {
			flush(i)
		}
		if i%(len(evs)/3) == 0 {
			checkAll(i)
		}
		switch ev.kind {
		case evDelete:
			if err := op.DeleteRelation(shape.messageKey(ev.id)); err != nil {
				t.Fatal(err)
			}
			if old, ok := ref[ev.id]; ok {
				live -= len(old.name) + shape.keyBytes(ev.id)
				delete(ref, ev.id)
			}
			check(i)
			continue
		case evPut:
			if pending < 0 {
				blk.Begin("relation", 0, relKinds)
			}
			appendValue(t, &blk.Cols[0], shape.keyValue(ev.id))
			appendValue(t, &blk.Cols[1], ev.name)
			appendInt64(&blk.Cols[2], ev.n)
			if ev.id >= 0 {
				if old, ok := ref[ev.id]; ok {
					live -= len(old.name)
				} else {
					live += shape.keyBytes(ev.id)
					written += shape.keyBytes(ev.id)
				}
				live += len(ev.name)
				written += len(ev.name)
				ref[ev.id] = relRow{ev.name, ev.n}
			}
		case evProbe:
			if pending < 0 {
				blk.Begin("stream", 0, streamKinds)
			}
			appendInt64(&blk.Cols[0], ev.n)
			appendValue(t, &blk.Cols[1], shape.keyValue(ev.id))
			appendInt64(&blk.Cols[2], ev.n)
			if row, ok := ref[ev.id]; ok && ev.id >= 0 {
				want = append(want, relEvent{id: ev.n, name: row.name, n: row.n})
			}
		}
		blk.appendMeta(0, nil, int64(i))
		pending = ev.kind
	}
	flush(len(evs))
	checkAll(len(evs))
	if written <= 2*live {
		t.Fatalf("%d string bytes written, %d live at the end: arenas that never reclaimed would pass", written, live)
	}
	if len(ref) < keys/20 {
		t.Fatalf("only %d keys left live", len(ref))
	}
}

func appendValue(t *testing.T, v *vec.Vec, x any) {
	if err := v.Append(x); err != nil {
		t.Fatal(err)
	}
}
