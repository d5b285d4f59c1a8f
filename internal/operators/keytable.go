package operators

import (
	"bytes"
	"hash/maphash"
)

// keyTable assigns each distinct encoded key a slot number, in first-touch
// order, without allocating: an open-addressing table of slot numbers whose
// keys live in the caller's key list. The aggregate resets it per block;
// the sliding window keeps one per analytic call for the operator's life,
// and never deletes from it. A Go map keyed by string(key) does the same
// job but copies every distinct key into a fresh string, and measured no
// faster as the window's persistent index.
type keyTable struct {
	slots []int32 // slot number + 1; 0 marks an empty cell
	seed  maphash.Seed
}

// reset empties the table and sizes it for n distinct keys; more make it
// grow.
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
// copying it) when the table does not hold it yet.
//
//samzasql:hotpath
func (t *keyTable) slotOf(keys [][]byte, key []byte) (int32, [][]byte) {
	if 2*(len(keys)+1) > len(t.slots) {
		t.grow(keys)
	}
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

// slotOfLast is slotOf for the key at arena[start:], which the caller has
// just appended to its key arena; a key the block already has is cut off the
// arena again, keys holding its first copy.
//
//samzasql:hotpath
func (t *keyTable) slotOfLast(keys [][]byte, arena []byte, start int) (int32, [][]byte, []byte) {
	distinct := len(keys)
	slot, keys := t.slotOf(keys, arena[start:len(arena):len(arena)])
	if len(keys) == distinct {
		arena = arena[:start]
	}
	return slot, keys, arena
}

// grow doubles the table and re-places the keys it holds, keeping the load
// at most one half.
func (t *keyTable) grow(keys [][]byte) {
	t.reset(len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for k, key := range keys {
		i := maphash.Bytes(t.seed, key) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(k + 1)
	}
}
