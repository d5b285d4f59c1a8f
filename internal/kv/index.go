package kv

import (
	"bytes"
	"hash/maphash"
)

// pointIndex is the store's hash index from key bytes to skiplist node: an
// open-addressing table (linear probing, backward-shift deletion, load kept
// at or below one half) of node pointers beside each key's 64-bit hash. A
// slot holds no key of its own — a probe that matches on the hash compares
// against the node's key bytes — so the index costs two words per slot, a
// few tens of bytes per live key, whatever the key length.
//
// The skiplist stays the ordered structure (Range, and the position of a new
// key); the index answers "which node holds this key" in O(1), which is
// every Get, every GetMany key, every overwrite and every absent-key check.
type pointIndex struct {
	slots []indexSlot // len is zero or a power of two
	n     int
	seed  maphash.Seed
}

type indexSlot struct {
	hash uint64
	node *skipNode // nil marks an empty slot
}

const minIndexSlots = 16

func newPointIndex() pointIndex {
	// The seed only decides slot placement, which nothing outside the table
	// observes: iteration order comes from the skiplist.
	return pointIndex{seed: maphash.MakeSeed()}
}

func (x *pointIndex) hash(key []byte) uint64 { return maphash.Bytes(x.seed, key) }

// find returns the node holding key, whose hash is h, or nil.
//
//samzasql:hotpath
func (x *pointIndex) find(h uint64, key []byte) *skipNode {
	if len(x.slots) == 0 {
		return nil
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.node == nil {
			return nil
		}
		if s.hash == h && bytes.Equal(s.node.key, key) {
			return s.node
		}
	}
}

// add indexes node, whose key hashes to h and is not in the table yet.
func (x *pointIndex) add(h uint64, node *skipNode) {
	if (x.n+1)*2 > len(x.slots) {
		x.grow()
	}
	x.place(h, node)
	x.n++
}

func (x *pointIndex) place(h uint64, node *skipNode) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i].node != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = indexSlot{hash: h, node: node}
}

func (x *pointIndex) grow() {
	old := x.slots
	size := 2 * len(old)
	if size < minIndexSlots {
		size = minIndexSlots
	}
	x.slots = make([]indexSlot, size)
	for _, s := range old {
		if s.node != nil {
			x.place(s.hash, s.node)
		}
	}
}

// remove drops node, whose key hashes to h, from the table. Later entries of
// the same probe run shift back into the hole, so lookups never need
// tombstones and a store that deletes as much as it inserts (window chunks)
// does not degrade.
func (x *pointIndex) remove(h uint64, node *skipNode) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i].node != node {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j].node != nil; j = (j + 1) & mask {
		// The entry at j may move into the hole at i only if its home slot
		// does not lie cyclically within (i, j].
		home := x.slots[j].hash & mask
		if (j-home)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
}
