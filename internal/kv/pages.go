package kv

import "encoding/binary"

// Page geometry. An entry is [klen][key][vlen][value], both lengths as
// uvarints, written back to back into fixed-size pages; an entry larger than
// a page gets an oversized page of its own. The klen field holds klen<<1 |
// dead, so marking an entry dead flips one bit of its first byte, which no
// view covers, and evacuation skips dead entries without a hash probe. A
// ref names an entry by page id (high bits) and byte offset in the page (low
// shift bits); page id 0 is never used, so ref 0 names nothing.
const (
	pageShift = 15 // 32 KiB pages
	// poisonByte fills every page before it is written, so bytes a stale
	// view still shows after its page was evacuated and reused read as
	// garbage rather than as some other key's plausible value.
	poisonByte = 0xA5
)

// pageMeta is a page's byte accounting: dead bytes are used - live.
type pageMeta struct {
	used, live int
	queued     bool // on pageSet.victims
}

// pageSet holds a store's entry bytes. Writes go to the active page's end;
// an overwritten, appended-to or deleted entry's old bytes count as dead in
// their page, and a page whose dead bytes exceed its live bytes is queued
// for evacuation: the store copies its live entries to the active page and
// puts it on the free list, from which the next page is taken. Nothing in a
// pageSet holds a Go pointer per entry — one slice header per page.
type pageSet struct {
	shift   uint
	bufs    [][]byte // by page id; bufs[0] stays nil
	meta    []pageMeta
	free    []uint32 // evacuated pages, buffers kept for reuse
	spare   []uint32 // page ids without a buffer (released oversized pages)
	active  uint32   // the page being filled; 0 before the first write
	last    uint32   // ref of the newest entry on the active page, 0 if none
	victims []uint32 // pages whose dead bytes exceed their live bytes
}

func newPageSet(shift uint) pageSet {
	return pageSet{shift: shift, bufs: make([][]byte, 1), meta: make([]pageMeta, 1)}
}

func (p *pageSet) pageSize() int { return 1 << p.shift }

func (p *pageSet) at(ref uint32) []byte {
	return p.bufs[ref>>p.shift][ref&(1<<p.shift-1):]
}

// uvarint is binary.Uvarint with the one-byte case inlined: keys and most
// values are shorter than 128 bytes.
func uvarint(b []byte) (int, int) {
	if b[0] < 0x80 {
		return int(b[0]), 1
	}
	v, n := binary.Uvarint(b)
	return int(v), n
}

func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// key returns the key of the entry at ref, capped at its length.
//
//samzasql:hotpath
func (p *pageSet) key(ref uint32) []byte {
	b := p.at(ref)
	kl, n := uvarint(b)
	kl >>= 1
	return b[n : n+kl : n+kl]
}

// entry returns the key and value of the entry at b, each capped at its
// length so that a caller appending to one cannot write into the page, and
// the entry's size in bytes.
//
//samzasql:hotpath
func entry(b []byte) (key, val []byte, size int) {
	kl, n := uvarint(b)
	kl >>= 1
	key = b[n : n+kl : n+kl]
	vl, m := uvarint(b[n+kl:])
	v := n + kl + m
	return key, b[v : v+vl : v+vl], v + vl
}

func (p *pageSet) entry(ref uint32) (key, val []byte, size int) { return entry(p.at(ref)) }

// write stores a new entry holding key and the value v1 followed by v2, and
// returns its ref. The bytes go to the active page's end, to a fresh active
// page when they do not fit there, or to an oversized page of their own when
// they do not fit in any page.
func (p *pageSet) write(key, v1, v2 []byte) uint32 {
	vl := len(v1) + len(v2)
	size := uvarintLen(len(key)<<1) + len(key) + uvarintLen(vl) + vl
	var id uint32
	var b []byte
	off := 0
	if size > p.pageSize() {
		id = p.newID()
		b = make([]byte, size)
		p.bufs[id] = b
		p.meta[id] = pageMeta{used: size, live: size}
	} else {
		if p.active == 0 || p.meta[p.active].used+size > p.pageSize() {
			p.rotate()
		}
		id = p.active
		m := &p.meta[id]
		off = m.used
		m.used += size
		m.live += size
		b = p.bufs[id][off : off+size]
	}
	n := binary.PutUvarint(b, uint64(len(key))<<1)
	n += copy(b[n:], key)
	n += binary.PutUvarint(b[n:], uint64(vl))
	n += copy(b[n:], v1)
	copy(b[n:], v2)
	ref := id<<p.shift | uint32(off)
	if id == p.active {
		p.last = ref
	}
	return ref
}

// growLast appends v to the value of the entry at ref in place and reports
// whether it could: ref must be the newest entry on the active page, the
// page must have room, and the value's length prefix must keep its width.
func (p *pageSet) growLast(ref uint32, v []byte) bool {
	if ref != p.last || ref == 0 {
		return false
	}
	m := &p.meta[p.active]
	if m.used+len(v) > p.pageSize() {
		return false
	}
	b := p.at(ref)
	kl, n := uvarint(b)
	kl >>= 1
	vl, w := uvarint(b[n+kl:])
	if uvarintLen(vl+len(v)) != w {
		return false
	}
	binary.PutUvarint(b[n+kl:], uint64(vl+len(v)))
	copy(p.bufs[p.active][m.used:], v)
	m.used += len(v)
	m.live += len(v)
	return true
}

// kill marks the entry at ref dead, queueing its page for evacuation once
// the page holds more dead bytes than live ones. The active page is queued
// when it is retired instead. Only the dead bit changes: views of the entry
// stay readable until its page is reused.
func (p *pageSet) kill(ref uint32) {
	_, _, size := p.entry(ref)
	p.at(ref)[0] |= 1
	id := ref >> p.shift
	p.meta[id].live -= size
	if id != p.active {
		p.queueIfSparse(id)
	}
}

func (p *pageSet) queueIfSparse(id uint32) {
	if m := &p.meta[id]; !m.queued && m.used-m.live > m.live {
		m.queued = true
		p.victims = append(p.victims, id)
	}
}

// rotate retires the active page and makes a free page, or a fresh one,
// active. Every page is poisoned before it is written.
func (p *pageSet) rotate() {
	if old := p.active; old != 0 {
		p.active = 0
		p.queueIfSparse(old)
	}
	var id uint32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = p.newID()
		p.bufs[id] = make([]byte, p.pageSize())
	}
	poison(p.bufs[id])
	p.meta[id] = pageMeta{}
	p.active, p.last = id, 0
}

// poison fills b with poisonByte, doubling the filled prefix per copy.
func poison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = poisonByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// newID returns an unused page id without a buffer.
func (p *pageSet) newID() uint32 {
	if n := len(p.spare); n > 0 {
		id := p.spare[n-1]
		p.spare = p.spare[:n-1]
		return id
	}
	id := uint32(len(p.bufs))
	if uint64(id) >= 1<<(32-p.shift) {
		panic("kv: store outgrew its page id space")
	}
	p.bufs = append(p.bufs, nil)
	p.meta = append(p.meta, pageMeta{})
	return id
}

// release returns an evacuated page: a page-sized buffer to the free list,
// an oversized one to the garbage collector.
func (p *pageSet) release(id uint32) {
	p.meta[id] = pageMeta{}
	if len(p.bufs[id]) > p.pageSize() {
		p.bufs[id] = nil
		p.spare = append(p.spare, id)
		return
	}
	p.free = append(p.free, id)
}
