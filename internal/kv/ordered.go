package kv

import (
	"bytes"
	"slices"
)

// orderedBlock caps the refs one block of the ordered view holds; a block
// that passes it splits in two.
const orderedBlock = 256

// orderedView is a store's key order, built on the store's first Range and
// maintained by every write after it: the refs of all live entries, sorted by
// key, cut into blocks of at most orderedBlock. A lookup binary-searches the
// blocks by their first keys, then the block; an insert or a delete moves at
// most one block's refs, and a split inserts one block header. It holds one
// slice header per block and no Go pointer per key.
type orderedView struct {
	blocks [][]uint32 // each sorted and non-empty
}

// buildOrdered sorts the refs the index holds.
func (s *store) buildOrdered() *orderedView {
	refs := make([]uint32, 0, s.idx.n)
	for _, sl := range s.idx.slots {
		if sl.ref != 0 {
			refs = append(refs, sl.ref)
		}
	}
	slices.SortFunc(refs, func(a, b uint32) int { return bytes.Compare(s.pg.key(a), s.pg.key(b)) })
	o := &orderedView{}
	for len(refs) > 0 {
		n := min(len(refs), orderedBlock/2)
		o.blocks = append(o.blocks, newBlock(refs[:n]))
		refs = refs[n:]
	}
	return o
}

func newBlock(refs []uint32) []uint32 {
	return append(make([]uint32, 0, orderedBlock+1), refs...)
}

// seek returns the position of the first ref whose key is >= key: block bi,
// index i, where i may equal the block's length when every key of block bi
// sorts before key.
func (o *orderedView) seek(pg *pageSet, key []byte) (bi, i int) {
	// The last block whose first key is <= key holds the position, or
	// block 0 when there is none.
	lo, hi := 0, len(o.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(pg.key(o.blocks[m][0]), key) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	bi = max(lo-1, 0)
	if bi >= len(o.blocks) {
		return bi, 0
	}
	b := o.blocks[bi]
	lo, hi = 0, len(b)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(pg.key(b[m]), key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return bi, lo
}

// find returns the position of ref, whose key is key.
func (o *orderedView) find(pg *pageSet, key []byte, ref uint32) (bi, i int) {
	bi, i = o.seek(pg, key)
	if bi >= len(o.blocks) || i >= len(o.blocks[bi]) || o.blocks[bi][i] != ref {
		panic("kv: ordered view lost a key")
	}
	return bi, i
}

// insert places ref, whose key is key and not in the view yet.
func (o *orderedView) insert(pg *pageSet, key []byte, ref uint32) {
	if len(o.blocks) == 0 {
		o.blocks = append(o.blocks, newBlock([]uint32{ref}))
		return
	}
	bi, i := o.seek(pg, key)
	b := slices.Insert(o.blocks[bi], i, ref)
	if len(b) <= orderedBlock {
		o.blocks[bi] = b
		return
	}
	half := len(b) / 2
	o.blocks[bi] = b[:half]
	o.blocks = slices.Insert(o.blocks, bi+1, newBlock(b[half:]))
}

// remove drops ref, whose key is key.
func (o *orderedView) remove(pg *pageSet, key []byte, ref uint32) {
	bi, i := o.find(pg, key, ref)
	b := slices.Delete(o.blocks[bi], i, i+1)
	if len(b) == 0 {
		o.blocks = slices.Delete(o.blocks, bi, bi+1)
		return
	}
	o.blocks[bi] = b
}

// replace points the view at ref, the new place of key's entry, instead of
// old.
func (o *orderedView) replace(pg *pageSet, key []byte, old, ref uint32) {
	bi, i := o.find(pg, key, old)
	o.blocks[bi][i] = ref
}

// scan collects entries with start <= key < end. nil start means from the
// beginning, nil end means to the end; limit <= 0 means unlimited.
func (o *orderedView) scan(pg *pageSet, start, end []byte, limit int) []Entry {
	var out []Entry
	bi, i := 0, 0
	if start != nil {
		bi, i = o.seek(pg, start)
	}
	for ; bi < len(o.blocks); bi, i = bi+1, 0 {
		for _, ref := range o.blocks[bi][i:] {
			k, v, _ := pg.entry(ref)
			if end != nil && bytes.Compare(k, end) >= 0 {
				return out
			}
			out = append(out, Entry{Key: k, Value: v})
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}
