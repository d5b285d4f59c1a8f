package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// pagedStore returns the paged engine under s, looking through a changelog
// mirror, or nil for any other store.
func pagedStore(s Store) *store {
	switch v := s.(type) {
	case *store:
		return v
	case *ChangelogStore:
		return pagedStore(v.Store)
	}
	return nil
}

// checkInvariants requires a paged store's structures to agree with each
// other: every index slot names a live entry whose key hashes to the slot,
// every page's live bytes are exactly the entries the index names in it, a
// page on the free list or the evacuation queue is accounted as such, the
// unwritten rest of the active page is poison, and the ordered view, when
// built, holds the index's refs in strictly increasing key order in blocks
// of at most orderedBlock.
func checkInvariants(t *testing.T, what string, st Store) {
	t.Helper()
	s := pagedStore(st)
	if s == nil {
		return
	}
	p := &s.pg
	live := make([]int, len(p.bufs))
	refs := map[uint32]bool{}
	n := 0
	for i, sl := range s.idx.slots {
		if sl.ref == 0 {
			continue
		}
		n++
		id := sl.ref >> p.shift
		if id == 0 || int(id) >= len(p.bufs) || p.bufs[id] == nil {
			t.Fatalf("%s: slot %d names ref %#x on page %d, which holds nothing", what, i, sl.ref, id)
		}
		k, _, size := p.entry(sl.ref)
		if s.idx.hash(k) != sl.hash {
			t.Fatalf("%s: slot %d names key %q, which does not hash to the slot's hash", what, i, k)
		}
		if got := s.find(sl.hash, k); got != i {
			t.Fatalf("%s: key %q sits in slot %d, a probe finds %d", what, k, i, got)
		}
		live[id] += size
		refs[sl.ref] = true
	}
	if n != s.idx.n {
		t.Fatalf("%s: index counts %d keys, holds %d", what, s.idx.n, n)
	}
	free := map[uint32]bool{}
	for _, id := range p.free {
		free[id] = true
	}
	queued := map[uint32]bool{}
	for _, id := range p.victims {
		queued[id] = true
	}
	for id := 1; id < len(p.bufs); id++ {
		m := p.meta[id]
		// The dead bits agree with the index: every entry not marked dead
		// is the one the index names for its key.
		walked := 0
		for off := 0; off < m.used; {
			k, _, size := entry(p.bufs[id][off:])
			ref := uint32(id)<<p.shift | uint32(off)
			if p.bufs[id][off]&1 == 0 {
				if !refs[ref] {
					t.Fatalf("%s: entry %q at %#x is not marked dead, but the index does not name it", what, k, ref)
				}
				walked += size
			}
			off += size
		}
		if m.live != live[id] || walked != live[id] {
			t.Fatalf("%s: page %d accounts %d live bytes, holds %d not marked dead, the index names %d", what, id, m.live, walked, live[id])
		}
		if m.used < m.live || m.used > len(p.bufs[id]) {
			t.Fatalf("%s: page %d has used %d, live %d, size %d", what, id, m.used, m.live, len(p.bufs[id]))
		}
		if m.queued != queued[uint32(id)] {
			t.Fatalf("%s: page %d queued flag %v, on the queue %v", what, id, m.queued, queued[uint32(id)])
		}
		if free[uint32(id)] && (m.used != 0 || uint32(id) == p.active || len(p.bufs[id]) != p.pageSize()) {
			t.Fatalf("%s: free page %d is in use (used %d, active %d, size %d)", what, id, m.used, p.active, len(p.bufs[id]))
		}
	}
	if p.active != 0 {
		used := p.meta[p.active].used
		for j, c := range p.bufs[p.active][used:] {
			if c != poisonByte {
				t.Fatalf("%s: byte %d of active page %d, past its %d written bytes, is %#x, not poison", what, used+j, p.active, used, c)
			}
		}
	}
	if s.ordered == nil {
		return
	}
	seen := 0
	var prev []byte
	for bi, b := range s.ordered.blocks {
		if len(b) == 0 || len(b) > orderedBlock {
			t.Fatalf("%s: ordered block %d holds %d refs, want 1..%d", what, bi, len(b), orderedBlock)
		}
		for _, ref := range b {
			if !refs[ref] {
				t.Fatalf("%s: ordered view holds ref %#x, which the index does not", what, ref)
			}
			k := p.key(ref)
			if seen > 0 && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("%s: ordered view has %q before %q", what, prev, k)
			}
			prev = k
			seen++
		}
	}
	if seen != n {
		t.Fatalf("%s: ordered view holds %d refs, the index %d", what, seen, n)
	}
}

// TestStoreBuildsKeyOrderOnlyOnRange pins that key order is paid for only by
// stores that scan: puts, appends, overwrites, deletes and point reads of
// every kind leave the ordered view unbuilt, and the first Range builds it.
func TestStoreBuildsKeyOrderOnlyOnRange(t *testing.T) {
	s := newStore(8)
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", (i*7919)%len(keys)))
		s.Put(keys[i], keys[i])
	}
	for i := 0; i < 4000; i++ {
		k := keys[i%len(keys)]
		ops := []WriteOp{{Key: k, Value: []byte("+"), Kind: OpAppend}, {Key: keys[(i+1)%len(keys)], Value: k}}
		if i%5 == 0 {
			ops = append(ops, WriteOp{Key: keys[(i+2)%len(keys)], Kind: OpDelete})
		}
		s.WriteMany(ops)
		s.Get(k)
		vals, oks := make([][]byte, 2), make([]bool, 2)
		s.GetMany(keys[:2], vals, oks)
	}
	s.Delete(keys[3])
	if s.ordered != nil {
		t.Fatal("a store that never ran Range built its ordered view")
	}
	checkInvariants(t, "unordered", s)
	if got := s.Range(nil, nil, 0); len(got) != s.Len() {
		t.Fatalf("full scan returned %d entries, store holds %d", len(got), s.Len())
	}
	if s.ordered == nil {
		t.Fatal("Range did not build the ordered view")
	}
	checkInvariants(t, "ordered", s)
}

// TestStoreOrderedOnDemand builds the key order late: 10 k unordered writes,
// then a Range, then puts, Ranges and deletes interleaved, with pages small
// enough that evacuations move entries under the ordered view. Half the puts
// add keys inside a narrow band of the key space, so the blocks there fill
// and split. Every Range must equal the model's.
func TestStoreOrderedOnDemand(t *testing.T) {
	for _, shift := range []uint{8, pageShift} {
		rng := rand.New(rand.NewSource(int64(shift)))
		s := newStore(shift)
		m := &sortedModel{storeModel: storeModel{}}
		key := func() []byte { return []byte(fmt.Sprintf("key-%05d", rng.Intn(12000))) }
		for i := 0; i < 10_000; i++ {
			k, v := key(), modelValue(rng, i)
			s.Put(k, v)
			m.set(string(k), string(v))
		}
		if s.ordered != nil {
			t.Fatal("unordered writes built the ordered view")
		}
		check := func(step int) {
			start, end := key(), key()
			if bytes.Compare(start, end) > 0 {
				start, end = end, start
			}
			limit := rng.Intn(40)
			if got, want := s.Range(start, end, limit), m.rangeOf(start, end, limit); !sameEntries(got, want) {
				t.Fatalf("shift %d step %d: Range(%q, %q, %d) diverges:\n got  %q\n want %q", shift, step, start, end, limit, got, want)
			}
		}
		check(-1)
		for i := 0; i < 20_000; i++ {
			switch k := key(); rng.Intn(4) {
			case 0:
				s.Delete(k)
				m.del(string(k))
			case 1:
				check(i)
			case 2:
				v := modelValue(rng, i)
				s.WriteMany([]WriteOp{{Key: k, Value: v, Kind: OpAppend}})
				m.set(string(k), m.storeModel[string(k)]+string(v))
			default:
				if rng.Intn(2) == 0 {
					k = []byte(fmt.Sprintf("key-%05d/%d", 6000+rng.Intn(20), i))
				}
				v := modelValue(rng, i)
				s.Put(k, v)
				m.set(string(k), string(v))
			}
			if i%1000 == 0 {
				checkInvariants(t, fmt.Sprintf("shift %d step %d", shift, i), s)
			}
		}
		checkAgainstModel(t, fmt.Sprintf("shift %d final", shift), s, m.storeModel, map[string]bool{})
	}
}

// sortedModel is a storeModel that keeps its keys sorted as they come and
// go, for tests that compare many ranges over many keys.
type sortedModel struct {
	storeModel
	keys []string
}

func (m *sortedModel) set(k, v string) {
	if _, ok := m.storeModel[k]; !ok {
		i := sort.SearchStrings(m.keys, k)
		m.keys = slices.Insert(m.keys, i, k)
	}
	m.storeModel[k] = v
}

func (m *sortedModel) del(k string) {
	if _, ok := m.storeModel[k]; ok {
		i := sort.SearchStrings(m.keys, k)
		m.keys = slices.Delete(m.keys, i, i+1)
		delete(m.storeModel, k)
	}
}

func (m *sortedModel) rangeOf(start, end []byte, limit int) []Entry {
	var out []Entry
	for i := sort.SearchStrings(m.keys, string(start)); i < len(m.keys); i++ {
		k := m.keys[i]
		if end != nil && k >= string(end) {
			break
		}
		out = append(out, Entry{Key: []byte(k), Value: []byte(m.storeModel[k])})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// TestStaleViewReadsPoison pins the reason pages are poisoned: a view held
// past the writes that evacuate and reuse its page reads poison, not bytes
// that look like a value. On 64-byte pages the view's entry sits behind a
// 33-byte filler; once both are dead the page is evacuated, and when it is
// reused only its first bytes are rewritten before the check.
func TestStaleViewReadsPoison(t *testing.T) {
	s := newStore(6)
	s.Put([]byte("f"), bytes.Repeat([]byte("f"), 30))
	orig := []byte("original-value")
	s.Put([]byte("k"), orig)
	view, _ := s.Get([]byte("k"))
	s.Delete([]byte("f"))
	for i := 0; i < 16 && bytes.Equal(view, orig); i++ {
		s.Put([]byte("k"), []byte(fmt.Sprintf("later-value-%02d", i)))
	}
	if want := bytes.Repeat([]byte{poisonByte}, len(orig)); !bytes.Equal(view, want) {
		t.Fatalf("stale view reads %q, want poison", view)
	}
	if v, _ := s.Get([]byte("k")); !bytes.HasPrefix(v, []byte("later-value-")) {
		t.Fatalf("live value is %q", v)
	}
}

// TestStoreOversizedValues puts, appends to and deletes values larger than a
// page, which live on pages of their own, and requires the store to hand
// those pages back once the values die.
func TestStoreOversizedValues(t *testing.T) {
	s := newStore(6)
	big := bytes.Repeat([]byte("x"), 200)
	s.Put([]byte("a"), big)
	s.WriteMany([]WriteOp{{Key: []byte("a"), Value: []byte("yz"), Kind: OpAppend}})
	s.Put([]byte("b"), []byte("small"))
	if v, _ := s.Get([]byte("a")); string(v) != string(big)+"yz" {
		t.Fatalf("oversized append reads %d bytes", len(v))
	}
	checkInvariants(t, "oversized", s)
	s.Delete([]byte("a"))
	s.Put([]byte("c"), []byte("small"))
	for id, b := range s.pg.bufs {
		if len(b) > s.pg.pageSize() {
			t.Fatalf("page %d still holds %d bytes after its value died", id, len(b))
		}
	}
	checkInvariants(t, "released", s)
}

// FuzzStoreOps reads its input as a program over five keys against a store
// whose pages are 32 to 256 bytes, so that evacuation, page reuse and
// oversized values all happen within a few writes: Put, Delete, write
// batches of puts, appends and deletes, Get, GetMany and Range(start, end,
// limit). Every read is compared with a sorted map model, and the store's
// page accounting and ordered view are checked after every operation.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 3, 'a', 'b', 'c', 0x15, 0x06, 0x31, 2, 'x', 'y', 0x07, 0x12})
	f.Add([]byte{0x02, 0x21, 9, 'v', 'v', 'v', 'v', 'v', 'v', 'v', 'v', 'v', 0x07, 0x03, 0x44, 0x21, 1, 'w', 0x46, 0x07})
	f.Add(bytes.Repeat([]byte{0x11, 0x30, 6, 'p', 'q', 'r', 's', 't', 'u', 0x07, 0x05, 0x41, 3, 'a', 'b', 'c', 0x36, 0x32}, 8))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		s := newStore(5 + uint(prog[0]%4))
		prog = prog[1:]
		keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("key-two"), {}, []byte("k1\x00")}
		m := storeModel{}
		// batch is the write batch being assembled; the model takes it when
		// the store does.
		var batch []WriteOp
		flush := func() {
			s.WriteMany(batch)
			for _, op := range batch {
				switch op.Kind {
				case OpDelete:
					delete(m, string(op.Key))
				case OpAppend:
					m[string(op.Key)] += string(op.Value)
				default:
					m[string(op.Key)] = string(op.Value)
				}
			}
			batch = batch[:0]
		}
		// value reads a length byte (mod 16, so values outgrow the smaller
		// pages) and that many bytes from the program.
		i := 0
		value := func() []byte {
			if i >= len(prog) {
				return []byte{}
			}
			n := min(int(prog[i]%16), len(prog)-i-1)
			v := append([]byte{}, prog[i+1:i+1+n]...)
			i += 1 + n
			return v
		}
		// Each instruction byte: bits 0-2 the op (put, delete, batch put,
		// batch append, batch delete, point reads, range, end of batch),
		// bits 4-6 a key (mod 5).
		for i < len(prog) {
			b := prog[i]
			i++
			k := keys[int(b>>4&7)%len(keys)]
			switch b & 7 {
			case 0:
				v := value()
				s.Put(k, v)
				m[string(k)] = string(v)
			case 1:
				_, want := m[string(k)]
				if got := s.Delete(k); got != want {
					t.Fatalf("Delete(%q) = %v, model %v", k, got, want)
				}
				delete(m, string(k))
			case 2:
				batch = append(batch, WriteOp{Key: k, Value: value()})
			case 3:
				batch = append(batch, WriteOp{Key: k, Value: value(), Kind: OpAppend})
			case 4:
				batch = append(batch, WriteOp{Key: k, Kind: OpDelete})
			case 5:
				v, ok := s.Get(k)
				want, wantOK := m[string(k)]
				if ok != wantOK || string(v) != want {
					t.Fatalf("Get(%q) = %q %v, model %q %v", k, v, ok, want, wantOK)
				}
				vals, oks := make([][]byte, len(keys)), make([]bool, len(keys))
				s.GetMany(keys, vals, oks)
				for j, k := range keys {
					want, wantOK := m[string(k)]
					if oks[j] != wantOK || string(vals[j]) != want {
						t.Fatalf("GetMany[%d](%q) = %q %v, model %q %v", j, k, vals[j], oks[j], want, wantOK)
					}
				}
			case 6:
				// The operand byte: bits 0-2 the start key, bit 3 no start,
				// bits 4-6 the end key, bit 7 no end.
				var start, end []byte
				if i < len(prog) {
					c := prog[i]
					i++
					if c&8 == 0 {
						start = keys[int(c&7)%len(keys)]
					}
					if c&0x80 == 0 {
						end = keys[int(c>>4&7)%len(keys)]
					}
				}
				limit := int(b>>4&7) % 4
				if got, want := s.Range(start, end, limit), m.rangeOf(start, end, limit); !sameEntries(got, want) {
					t.Fatalf("Range(%q, %q, %d) diverges:\n got  %q\n want %q", start, end, limit, got, want)
				}
			case 7:
				flush()
			}
			if b&7 != 2 && b&7 != 3 && b&7 != 4 {
				checkInvariants(t, "after op", s)
			}
		}
		flush()
		everSeen := map[string]bool{}
		for _, k := range keys {
			everSeen[string(k)] = true
		}
		checkAgainstModel(t, "final", s, m, everSeen)
	})
}
