package kv

import "hash/maphash"

// pointIndex is the store's hash index from key to entry: an open-addressing
// table (linear probing, backward-shift deletion, load kept at or below one
// half) of {hash, ref} slots, eight bytes each. A slot holds no key of its
// own — a probe that matches on the hash compares against the key bytes at
// ref — and no Go pointer, so the index is one flat array the garbage
// collector never scans.
type pointIndex struct {
	slots []indexSlot // len is zero or a power of two
	n     int
	seed  maphash.Seed
}

type indexSlot struct {
	hash uint32
	ref  uint32 // 0 marks an empty slot
}

const minIndexSlots = 16

func newPointIndex() pointIndex {
	// The seed only decides slot placement, which nothing outside the table
	// observes: iteration order comes from the ordered view.
	return pointIndex{seed: maphash.MakeSeed()}
}

func (x *pointIndex) hash(key []byte) uint32 { return uint32(maphash.Bytes(x.seed, key)) }

// slotOf returns the slot holding ref, a live entry whose key hashes to h:
// evacuation's lookup, which compares refs, not key bytes.
func (x *pointIndex) slotOf(h, ref uint32) int {
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch x.slots[i].ref {
		case ref:
			return int(i)
		case 0:
			panic("kv: index lost a live entry")
		}
	}
}

// add indexes ref, whose key hashes to h and is not in the table yet.
func (x *pointIndex) add(h, ref uint32) {
	if (x.n+1)*2 > len(x.slots) {
		x.grow()
	}
	x.place(h, ref)
	x.n++
}

func (x *pointIndex) place(h, ref uint32) {
	mask := uint32(len(x.slots) - 1)
	i := h & mask
	for x.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = indexSlot{hash: h, ref: ref}
}

func (x *pointIndex) grow() {
	old := x.slots
	size := 2 * len(old)
	if size < minIndexSlots {
		size = minIndexSlots
	}
	x.slots = make([]indexSlot, size)
	for _, s := range old {
		if s.ref != 0 {
			x.place(s.hash, s.ref)
		}
	}
}

// removeAt empties slot i. Later entries of the same probe run shift back
// into the hole, so lookups never need tombstones and a store that deletes
// as much as it inserts (window chunks) does not degrade.
func (x *pointIndex) removeAt(i int) {
	mask := uint32(len(x.slots) - 1)
	hole := uint32(i)
	for j := (hole + 1) & mask; x.slots[j].ref != 0; j = (j + 1) & mask {
		// The entry at j may move into the hole only if its home slot does
		// not lie cyclically within (hole, j].
		home := x.slots[j].hash & mask
		if (j-home)&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = indexSlot{}
	x.n--
}
