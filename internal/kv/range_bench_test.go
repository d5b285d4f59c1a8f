package kv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkStoreInsertRange is the ordered path as the stream–stream join
// drives it: per op, put a new key (side, partition key, timestamp, offset),
// Range the other side's probe window for the same partition key, then Range
// and Delete this side's purge prefix — everything older than the retention
// — which holds the store at the given number of live keys.
func BenchmarkStoreInsertRange(b *testing.B) {
	for _, live := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", live), func(b *testing.B) {
			const parts = 256
			s := NewStore()
			rng := rand.New(rand.NewSource(1))
			var key, lo, hi [25]byte
			sideKey := func(dst *[25]byte, side byte, pk, ts uint64) []byte {
				dst[0] = side
				binary.BigEndian.PutUint64(dst[1:], pk)
				binary.BigEndian.PutUint64(dst[9:], ts)
				binary.BigEndian.PutUint64(dst[17:], ts)
				return dst[:]
			}
			val := make([]byte, 24)
			op := func(i uint64) {
				side, pk := byte(i&1), uint64(rng.Intn(parts))
				s.Put(sideKey(&key, side, pk, i), val)
				// Probe: the other side's entries of pk within 4*parts ticks.
				from := uint64(0)
				if i > 4*parts {
					from = i - 4*parts
				}
				for _, e := range s.Range(sideKey(&lo, 1-side, pk, from), sideKey(&hi, 1-side, pk, i+1), 0) {
					_ = e.Value[0]
				}
				// Purge: this side's entries of pk older than the retention.
				if i > uint64(live) {
					for _, e := range s.Range(sideKey(&lo, side, pk, 0), sideKey(&hi, side, pk, i-uint64(live)), 0) {
						s.Delete(e.Key)
					}
				}
			}
			i := uint64(1)
			for ; i <= uint64(live); i++ {
				op(i)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				op(i)
				i++
			}
			b.StopTimer()
			if got := s.Len(); got < live*9/10 || got > live*11/10 {
				b.Fatalf("store holds %d keys, want about %d", got, live)
			}
		})
	}
}
