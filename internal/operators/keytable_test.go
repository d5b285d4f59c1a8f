package operators

import (
	"fmt"
	"testing"
)

// TestKeyTableGrows numbers far more distinct keys than the table was sized
// for (a hopping window's block touches up to rows × windows-per-row keys)
// and requires every key to keep the slot it got first.
func TestKeyTableGrows(t *testing.T) {
	var table keyTable
	table.reset(4)
	var keys [][]byte
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			var slot int32
			slot, keys = table.slotOf(keys, []byte(fmt.Sprintf("key-%d", i)))
			distinct := i + 1
			if round > 0 {
				distinct = 1000 // the second round finds every key
			}
			if slot != int32(i) || len(keys) != distinct {
				t.Fatalf("round %d: key-%d got slot %d with %d keys", round, i, slot, len(keys))
			}
		}
	}
}
