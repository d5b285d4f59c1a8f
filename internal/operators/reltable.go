package operators

import (
	"bytes"
	"hash/maphash"

	"samzasql/internal/vec"
)

// relTable is the stream-relation join's relation state: the latest row of
// every join key, kept as typed column vectors (row i of each vector is one
// relation row) behind an open-addressing index from join key to row —
// linear probing, backward-shift deletion and a load of at most one half,
// as the store's point index (kv/index.go). A probe hashes the key, compares
// it as a typed value (a fixed-width key sits in its slot, a VARCHAR key is
// the relation's own key column) and hands back a row the caller copies
// vector to vector: no store read, no row decode. Go's built-in map from
// key to row, measured in the index's place, took about 30 % longer per
// probe and drained the enrich_join benchmark about 15 % slower.
//
// The table is not durable. The relation's compacted topic is its only
// copy, and a restarted task rebuilds the table by reading that topic from
// its start (samza.StreamSpec.Bootstrap).
type relTable struct {
	// cols holds one vector per relation column. A column no relation block
	// has carried yet (the scan leaves the columns no operator reads absent)
	// is an absent vector that keeps no rows.
	cols []vec.Vec
	rows int     // rows in every present vector, strs included
	free []int32 // rows a delete left, reused by later inserts

	// Keys are fixed-width bits, held in the slots, or bytes, held
	// row-aligned in cols[keyCol] when keyCol >= 0 and in strs, a String
	// vector of the table's own, when it is not. A fixed-width table keeps
	// no key column: cols[keyCol] stays absent, a matching row's key being
	// the probe's own value.
	fixed  bool
	keyCol int
	strs   vec.Vec

	slots []relSlot // len is zero or a power of two
	n     int       // live rows
	seed  maphash.Seed

	// dead counts the bytes in the String vectors' arenas (strs
	// included) that overwrites and deletes left behind. Once they exceed
	// the live bytes, reclaim rewrites the arenas; spare is the buffer it
	// rewrites into, the previous arena of the last vector it rewrote.
	dead  int
	spare []byte
}

type relSlot struct {
	bits uint64 // a fixed-width key
	hash uint32
	row  uint32 // row + 1; 0 marks an empty slot
}

// tableKey is one join key in the table's form: bits for a fixed-width
// table, str (a view; the table copies what it keeps) for a byte-keyed one.
type tableKey struct {
	bits uint64
	str  []byte
}

const minRelSlots = 16

// newRelTable returns an empty table for relation rows of the given column
// kinds, keyed by fixed-width bits when fixed is set and by bytes otherwise:
// those of relation column keyCol, or of keys the table keeps itself when
// keyCol is negative. A fixed-width table does not keep column keyCol.
func newRelTable(kinds []vec.Kind, fixed bool, keyCol int) relTable {
	t := relTable{cols: make([]vec.Vec, len(kinds)), fixed: fixed, keyCol: keyCol, seed: maphash.MakeSeed()}
	for c, k := range kinds {
		t.cols[c].Reset(k, 0, true)
	}
	t.strs.Truncate(vec.String)
	return t
}

// hash is the key's slot hash. A fixed-width key is mixed from its bits
// (the murmur3 finalizer); slot placement is not observable outside the
// table.
func (t *relTable) hash(k tableKey) uint32 {
	if !t.fixed {
		return uint32(maphash.Bytes(t.seed, k.str))
	}
	x := k.bits
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}

// find returns the slot holding k, whose hash is h, or -1.
//
//samzasql:hotpath
func (t *relTable) find(h uint32, k tableKey) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.row == 0 {
			return -1
		}
		if s.hash == h && t.holds(s, k) {
			return int(i)
		}
	}
}

// holds reports whether slot s holds key k.
func (t *relTable) holds(s relSlot, k tableKey) bool {
	if t.fixed {
		return s.bits == k.bits
	}
	return bytes.Equal(t.byteKeys().Str(int(s.row-1)), k.str)
}

// byteKeys is the vector holding a byte-keyed table's keys.
func (t *relTable) byteKeys() *vec.Vec {
	if t.keyCol >= 0 {
		return &t.cols[t.keyCol]
	}
	return &t.strs
}

// ownKeys reports whether the table keeps its keys in strs.
func (t *relTable) ownKeys() bool { return !t.fixed && t.keyCol < 0 }

// keyFromProbe reports whether relation column c is a fixed-width table's
// key column, which the table does not keep.
func (t *relTable) keyFromProbe(c int) bool { return t.fixed && c == t.keyCol }

// get returns k's row, or -1 when the table has none.
//
//samzasql:hotpath
func (t *relTable) get(k tableKey) int {
	i := t.find(t.hash(k), k)
	if i < 0 {
		return -1
	}
	return int(t.slots[i].row - 1)
}

// keep makes every column that cols, a relation block's vectors, carries
// present in the table, its rows so far NULL.
func (t *relTable) keep(cols []vec.Vec) {
	for c := range t.cols {
		if v := &t.cols[c]; v.Absent && !cols[c].Absent && !t.keyFromProbe(c) {
			v.Truncate(v.Kind)
			for i := 0; i < t.rows; i++ {
				v.SetNull(v.Grow())
			}
		}
	}
}

// put makes row r of cols (a relation block's vectors, each present column
// of the table already kept) k's row: over k's row in place when the table
// holds k, in a free or new row otherwise.
//
//samzasql:hotpath
func (t *relTable) put(k tableKey, cols []vec.Vec, r int) error {
	h := t.hash(k)
	var row int
	if i := t.find(h, k); i >= 0 {
		row = int(t.slots[i].row - 1)
		t.retire(row)
	} else {
		row = t.newRow()
		if t.ownKeys() {
			if err := t.strs.SetStr(row, k.str); err != nil {
				return err
			}
		}
		t.add(relSlot{bits: k.bits, hash: h, row: uint32(row + 1)})
	}
	for c := range t.cols {
		if v := &t.cols[c]; !v.Absent {
			if err := v.SetFrom(row, &cols[c], r); err != nil {
				return err
			}
		}
	}
	t.reclaim()
	return nil
}

// remove deletes k's row, reporting whether the table held k.
func (t *relTable) remove(k tableKey) bool {
	i := t.find(t.hash(k), k)
	if i < 0 {
		return false
	}
	row := int(t.slots[i].row - 1)
	t.retire(row)
	if t.ownKeys() {
		t.retireStr(&t.strs, row)
	}
	for c := range t.cols {
		if v := &t.cols[c]; v.Kind == vec.Any && !v.Absent {
			v.Any[row] = nil // drop the reference; the row is free
		}
	}
	t.free = append(t.free, int32(row))
	t.removeAt(i)
	t.reclaim()
	return true
}

// newRow returns a free row, or appends one to every vector.
func (t *relTable) newRow() int {
	if n := len(t.free); n > 0 {
		row := t.free[n-1]
		t.free = t.free[:n-1]
		return int(row)
	}
	for c := range t.cols {
		if v := &t.cols[c]; !v.Absent {
			v.Grow()
		}
	}
	if t.ownKeys() {
		t.strs.Grow()
	}
	t.rows++
	return t.rows - 1
}

// retire counts the string bytes of row's values as dead and empties their
// extents, so every extent in a String vector is live bytes or empty.
func (t *relTable) retire(row int) {
	for c := range t.cols {
		if v := &t.cols[c]; v.Kind == vec.String && !v.Absent {
			t.retireStr(v, row)
		}
	}
}

func (t *relTable) retireStr(v *vec.Vec, row int) {
	t.dead += int(v.Ext[2*row+1] - v.Ext[2*row])
	v.Ext[2*row], v.Ext[2*row+1] = 0, 0
}

// reclaim rewrites the String vectors' arenas, live extents only, once the
// dead bytes exceed the live ones: a rewrite copies no more bytes than
// overwrites and deletes left dead since the last one.
func (t *relTable) reclaim() {
	if t.dead == 0 {
		return
	}
	total := 0
	if t.ownKeys() {
		total += len(t.strs.Data)
	}
	for c := range t.cols {
		if v := &t.cols[c]; v.Kind == vec.String && !v.Absent {
			total += len(v.Data)
		}
	}
	if 2*t.dead <= total {
		return
	}
	if t.ownKeys() {
		t.rewrite(&t.strs)
	}
	for c := range t.cols {
		if v := &t.cols[c]; v.Kind == vec.String && !v.Absent {
			t.rewrite(v)
		}
	}
	t.dead = 0
}

// rewrite copies v's extents back to back into the spare arena, which
// becomes v's; v's old arena becomes the spare.
func (t *relTable) rewrite(v *vec.Vec) {
	data := t.spare[:0]
	for i := 0; i < t.rows; i++ {
		start := len(data)
		data = append(data, v.Str(i)...)
		v.Ext[2*i], v.Ext[2*i+1] = uint32(start), uint32(len(data))
	}
	t.spare, v.Data = v.Data[:0], data
}

// add indexes s, a row whose key is not in the table yet.
func (t *relTable) add(s relSlot) {
	if (t.n+1)*2 > len(t.slots) {
		t.grow()
	}
	t.place(s)
	t.n++
}

func (t *relTable) place(s relSlot) {
	mask := uint32(len(t.slots) - 1)
	i := s.hash & mask
	for t.slots[i].row != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *relTable) grow() {
	old := t.slots
	t.slots = make([]relSlot, max(2*len(old), minRelSlots))
	for _, s := range old {
		if s.row != 0 {
			t.place(s)
		}
	}
}

// removeAt empties slot i. Later entries of the same probe run shift back
// into the hole, so lookups never meet tombstones.
func (t *relTable) removeAt(i int) {
	mask := uint32(len(t.slots) - 1)
	hole := uint32(i)
	for j := (hole + 1) & mask; t.slots[j].row != 0; j = (j + 1) & mask {
		// The entry at j may move into the hole only if its home slot does
		// not lie cyclically within (hole, j].
		home := t.slots[j].hash & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = relSlot{}
	t.n--
}
