package operators

import (
	"bytes"
	"hash/maphash"
)

// keyTable assigns each distinct encoded key of a block a slot number, in
// first-touch order, without allocating: an open-addressing table of slot
// numbers whose keys live in the caller's key list. A Go map keyed by
// string(key) does the same job but copies every distinct key into a fresh
// string per block.
type keyTable struct {
	slots []int32 // slot number + 1; 0 marks an empty cell
	seed  maphash.Seed
}

// reset empties the table and sizes it for up to n distinct keys.
func (t *keyTable) reset(n int) {
	if t.slots == nil {
		t.seed = maphash.MakeSeed()
	}
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
		return
	}
	t.slots = t.slots[:size]
	clear(t.slots)
}

// slotOf returns key's slot number in keys, appending key to keys (without
// copying it) when the block has not touched it yet.
//
//samzasql:hotpath
func (t *keyTable) slotOf(keys [][]byte, key []byte) (int32, [][]byte) {
	mask := uint64(len(t.slots) - 1)
	for i := maphash.Bytes(t.seed, key) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			keys = append(keys, key)
			t.slots[i] = int32(len(keys))
			return int32(len(keys) - 1), keys
		}
		if bytes.Equal(keys[s-1], key) {
			return s - 1, keys
		}
	}
}
