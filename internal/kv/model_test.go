package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"samzasql/internal/kafka"
)

// storeModel is the reference the model test checks stores against: a map
// for point reads and a sorted key slice, rebuilt on demand, for ranges.
type storeModel map[string]string

func (m storeModel) sortedKeys() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// rangeOf returns the model's entries with start <= key < end, at most limit.
func (m storeModel) rangeOf(start, end []byte, limit int) []Entry {
	var out []Entry
	for _, k := range m.sortedKeys() {
		if start != nil && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			break
		}
		out = append(out, Entry{Key: []byte(k), Value: []byte(m[k])})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// modelKey draws from a key space built to stress both structures: the empty
// key, 1-byte keys, and keys that share long prefixes and differ only in
// their last bytes or their length.
func modelKey(rng *rand.Rand) []byte {
	switch rng.Intn(8) {
	case 0:
		return []byte{}
	case 1:
		return []byte{byte('a' + rng.Intn(4))}
	case 2:
		return []byte("shared/prefix/" + string(rune('a'+rng.Intn(6))))
	case 3:
		return bytes.Repeat([]byte("p"), 1+rng.Intn(6))
	default:
		return []byte(fmt.Sprintf("shared/prefix/k%03d", rng.Intn(60)))
	}
}

// modelValue draws values of varying length, so that overwrites both grow and
// shrink a key's value; some are empty.
func modelValue(rng *rand.Rand, i int) []byte {
	return bytes.Repeat([]byte{byte('A' + i%26)}, rng.Intn(12))
}

func sameEntries(got, want []Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			return false
		}
	}
	return true
}

// checkAgainstModel requires s to hold exactly the model: same size, the same
// ordered full scan (the list) and the same answer for every key read by
// exact key (the index), both one at a time and batched — present keys and
// keys the model once held and deleted.
func checkAgainstModel(t *testing.T, what string, s Store, m storeModel, everSeen map[string]bool) {
	t.Helper()
	if s.Len() != len(m) {
		t.Fatalf("%s: Len = %d, model has %d keys", what, s.Len(), len(m))
	}
	checkInvariants(t, what, s)
	if got, want := s.Range(nil, nil, 0), m.rangeOf(nil, nil, 0); !sameEntries(got, want) {
		t.Fatalf("%s: full scan diverges from the model:\n got  %q\n want %q", what, got, want)
	}
	keys := make([][]byte, 0, len(everSeen))
	for k := range everSeen {
		keys = append(keys, []byte(k))
	}
	vals := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	GetMany(s, keys, vals, oks)
	for i, k := range keys {
		want, wantOK := m[string(k)]
		if oks[i] != wantOK || (wantOK && string(vals[i]) != want) {
			t.Fatalf("%s: GetMany %q = %q %v, model %q %v", what, k, vals[i], oks[i], want, wantOK)
		}
		v, ok := s.Get(k)
		if ok != wantOK || (wantOK && string(v) != want) {
			t.Fatalf("%s: Get %q = %q %v, model %q %v", what, k, v, ok, want, wantOK)
		}
	}
}

// runStoreModel drives a random sequence of Put/Delete/Get/GetMany/WriteMany/
// Range operations through s and the model, comparing every result, and the
// whole state — and, on a paged store, its page accounting and ordered view —
// at intervals. Every operation reads through exactly one of the store's two
// structures, so any disagreement between index and ordered view — a key in
// one and not the other, a ref one of them still holds after an overwrite or
// an evacuation moved the entry — shows as a divergence from the model. Write
// batches append as well as put and delete. A view is checked when it is
// read and stays checked across a delete, which must not end it; a write
// that adds bytes ends it, so the model drops it there.
func runStoreModel(t *testing.T, s Store, seed int64, steps int) (storeModel, map[string]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := storeModel{}
	everSeen := map[string]bool{}
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(13); {
		case op < 4:
			k, v := modelKey(rng), modelValue(rng, i)
			s.Put(k, v)
			m[string(k)], everSeen[string(k)] = string(v), true
		case op < 6:
			k := modelKey(rng)
			_, want := m[string(k)]
			if got := s.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%q) = %v, model %v", i, k, got, want)
			}
			delete(m, string(k))
			everSeen[string(k)] = true
		case op < 8:
			k := modelKey(rng)
			v, ok := s.Get(k)
			want, wantOK := m[string(k)]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("step %d: Get(%q) = %q %v, model %q %v", i, k, v, ok, want, wantOK)
			}
		case op < 9:
			keys := make([][]byte, 1+rng.Intn(8))
			for j := range keys {
				keys[j] = modelKey(rng)
			}
			vals, oks := make([][]byte, len(keys)), make([]bool, len(keys))
			GetMany(s, keys, vals, oks)
			for j, k := range keys {
				want, wantOK := m[string(k)]
				if oks[j] != wantOK || (wantOK && string(vals[j]) != want) {
					t.Fatalf("step %d: GetMany[%d](%q) = %q %v, model %q %v", i, j, k, vals[j], oks[j], want, wantOK)
				}
			}
		case op < 11:
			// A write batch, often touching one key several times: delete
			// then reinsert, insert then delete, overwrite with a shorter
			// value, append to a value, to an absent key, after a delete.
			ops := make([]WriteOp, 1+rng.Intn(8))
			for j := range ops {
				k := modelKey(rng)
				if j > 0 && rng.Intn(3) == 0 {
					k = ops[j-1].Key
				}
				everSeen[string(k)] = true
				switch v := modelValue(rng, i+j); rng.Intn(4) {
				case 0:
					ops[j] = WriteOp{Key: k, Kind: OpDelete}
					delete(m, string(k))
				case 1:
					ops[j] = WriteOp{Key: k, Value: v, Kind: OpAppend}
					m[string(k)] += string(v)
				default:
					ops[j] = WriteOp{Key: k, Value: v}
					m[string(k)] = string(v)
				}
			}
			WriteMany(s, ops)
		case op < 12:
			// Views survive a delete of another key, and a caller appending
			// to one gets a copy, not the page bytes behind it. The append
			// that follows ends them.
			k, other := modelKey(rng), modelKey(rng)
			if bytes.Equal(k, other) {
				other = append(other, '!')
			}
			everSeen[string(k)], everSeen[string(other)] = true, true
			before, _ := s.Get(k)
			scan := s.Range(k, append(append([]byte(nil), k...), 0), 0)
			want := m[string(k)]
			s.Delete(other)
			delete(m, string(other))
			_ = append(before, "XYZ"...)
			if len(scan) == 1 {
				_ = append(scan[0].Key, "XYZ"...)
			}
			if string(before) != want || (len(scan) == 1 && string(scan[0].Value) != want) {
				t.Fatalf("step %d: views of %q read %q and %q after a delete, want %q", i, k, before, scan, want)
			}
			v := modelValue(rng, i)
			WriteMany(s, []WriteOp{{Key: k, Value: v, Kind: OpAppend}})
			m[string(k)] += string(v)
		default:
			start, end := modelKey(rng), modelKey(rng)
			if rng.Intn(4) == 0 {
				start = nil
			}
			if rng.Intn(4) == 0 {
				end = nil
			}
			limit := rng.Intn(6)
			if got, want := s.Range(start, end, limit), m.rangeOf(start, end, limit); !sameEntries(got, want) {
				t.Fatalf("step %d: Range(%q, %q, %d) diverges:\n got  %q\n want %q", i, start, end, limit, got, want)
			}
		}
		if i%97 == 0 {
			checkAgainstModel(t, fmt.Sprintf("step %d", i), s, m, everSeen)
		}
	}
	checkAgainstModel(t, "final", s, m, everSeen)
	return m, everSeen
}

// TestStoreModel checks the plain store — pages, point index and ordered
// view — against the reference over several seeds, with the default pages
// and with pages so small that evacuation, page reuse and oversized entries
// happen every few writes.
func TestStoreModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runStoreModel(t, NewStore(), seed, 4000)
		for _, shift := range []uint{5, 7} {
			runStoreModel(t, newStore(shift), seed, 4000)
		}
	}
}

// TestStoreModelManyKeys grows and shrinks the key set far enough that the
// index doubles several times and deletes shift long probe runs back.
func TestStoreModelManyKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewStore()
	m := storeModel{}
	everSeen := map[string]bool{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 3000; i++ {
			k := []byte(fmt.Sprintf("key-%05d", rng.Intn(5000)))
			v := []byte(fmt.Sprintf("v%d.%d", round, i))
			s.Put(k, v)
			m[string(k)], everSeen[string(k)] = string(v), true
		}
		for i := 0; i < 2500; i++ {
			k := []byte(fmt.Sprintf("key-%05d", rng.Intn(5000)))
			_, want := m[string(k)]
			if got := s.Delete(k); got != want {
				t.Fatalf("round %d: Delete(%q) = %v, model %v", round, k, got, want)
			}
			delete(m, string(k))
		}
		checkAgainstModel(t, fmt.Sprintf("round %d", round), s, m, everSeen)
	}
}

// TestStoreModelAfterChangelogRestore mirrors the sequence to a changelog one
// write batch per produce, compacts it, and requires a store restored from the
// sparse log to equal the model: restore maintains the index like any other
// write path. Odd seeds run on 64-byte pages, so the restore evacuates.
func TestStoreModelAfterChangelogRestore(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		broker := kafka.NewBroker()
		topic := fmt.Sprintf("model-cl-%d", seed)
		shift := uint(pageShift)
		if seed%2 == 1 {
			shift = 6
		}
		cs, err := NewChangelogStore(newStore(shift), broker, topic, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, everSeen := runStoreModel(t, cs, seed, 3000)
		if seed%2 == 0 {
			if err := broker.Compact(topic); err != nil {
				t.Fatal(err)
			}
		}
		restored, err := NewChangelogStore(newStore(shift), broker, topic, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(); err != nil {
			t.Fatal(err)
		}
		checkAgainstModel(t, "restored store", restored, m, everSeen)
	}
}

// benchKeys are decimal keys, the shape of the join state keys the
// benchmark's kv.get_ns replays.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%d", i))
	}
	return keys
}

func BenchmarkStoreGet(b *testing.B) {
	keys := benchKeys(100_000)
	s := NewStore()
	for _, k := range keys {
		s.Put(k, k)
	}
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[order[i%len(order)]])
	}
}

func BenchmarkStorePutNewKeys(b *testing.B) {
	keys := benchKeys(100_000)
	var s Store
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if i%len(keys) == 0 {
			s = NewStore()
		}
		s.Put(k, k)
	}
}

// FuzzChangelogReplay reads its input as a program of write batches — puts,
// appends and deletes over four keys — mirrored to a changelog whose
// segments roll every few records, with Broker.Compact forced between
// batches where the program says so (and run on its own once enough
// segments close). A store restored from the log must equal the map model
// of every write, as must the live store: compaction keeps a key's latest
// full record and the appends after it, and nothing a restore needs.
func FuzzChangelogReplay(f *testing.F) {
	f.Add([]byte{0x00, 2, 'a', 'b', 0x01, 1, 'c', 0x07, 0x01, 1, 'd', 0x03})
	f.Add([]byte{0x11, 3, 'x', 'y', 'z', 0x12, 0x07, 0x11, 1, 'w', 0x07, 0x10, 0, 0x07})
	f.Add(bytes.Repeat([]byte{0x21, 2, 'p', 'q', 0x31, 1, 'r', 0x07, 0x20, 1, 's', 0x32, 0x07}, 12))
	// Puts then an append to one key, compacted: the append must survive
	// behind the put it follows.
	f.Add([]byte("000000110107"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		broker := kafka.NewBroker()
		const topic = "replay-cl"
		if err := broker.CreateTopic(topic, kafka.TopicConfig{Partitions: 1, Compacted: true, SegmentBytes: 96}); err != nil {
			t.Fatal(err)
		}
		cs, err := NewChangelogStore(NewStore(), broker, topic, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("key-two"), {}}
		model := map[string]string{}
		var batch []WriteOp
		// Each instruction byte: bits 0-1 the op (put, append, delete, end of
		// batch), bits 4-5 the key; a put or append reads a length byte
		// (mod 8) and that many value bytes. An end of batch with bit 2 set
		// also forces a compaction.
		for i := 0; i < len(prog); i++ {
			b := prog[i]
			k := keys[(b>>4)&3]
			switch b & 3 {
			case 0, 1:
				n := 0
				if i+1 < len(prog) {
					n = min(int(prog[i+1]%8), len(prog)-i-2)
					i++
				}
				v := append([]byte{}, prog[i+1:i+1+n]...)
				i += n
				if b&3 == 0 {
					batch = append(batch, WriteOp{Key: k, Value: v})
					model[string(k)] = string(v)
				} else {
					batch = append(batch, WriteOp{Key: k, Value: v, Kind: OpAppend})
					model[string(k)] += string(v)
				}
			case 2:
				batch = append(batch, WriteOp{Key: k, Kind: OpDelete})
				delete(model, string(k))
			case 3:
				WriteMany(cs, batch)
				batch = batch[:0]
				if b&4 != 0 {
					if err := broker.Compact(topic); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		WriteMany(cs, batch)
		if err := cs.Err(); err != nil {
			t.Fatal(err)
		}
		restored, err := NewChangelogStore(NewStore(), broker, topic, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(); err != nil {
			t.Fatal(err)
		}
		everSeen := map[string]bool{}
		for _, k := range keys {
			everSeen[string(k)] = true
		}
		checkAgainstModel(t, "live store", cs, model, everSeen)
		checkAgainstModel(t, "restored store", restored, model, everSeen)
	})
}
