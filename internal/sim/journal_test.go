package sim

import (
	"math/bits"
	"testing"
)

// TestJournalAppendAllocs: appending N records allocates ⌈N/block⌉ record
// blocks plus the block directory's doublings, and never copies a record:
// every record keeps its address for the journal's lifetime.
func TestJournalAppendAllocs(t *testing.T) {
	const block = 1 << journalBlockBits
	for _, n := range []int{1, block, 5*block + 7} {
		blocks := (n + block - 1) / block
		allocs := testing.AllocsPerRun(3, func() {
			var j Journal
			for i := 0; i < n; i++ {
				j.add()
			}
		})
		if max := blocks + 1 + bits.Len(uint(blocks-1)); allocs > float64(max) {
			t.Errorf("%d appends: %.0f allocations, want <= %d (%d blocks + directory)", n, allocs, max, blocks)
		}

		var j Journal
		first := j.add()
		first.Addr = 42
		for i := 1; i < n; i++ {
			j.add().Addr = int64(i)
		}
		if j.Len() != n || j.At(0) != first || first.Addr != 42 || n > 1 && j.At(n-1).Addr != int64(n-1) {
			t.Errorf("%d appends: Len %d, record 0 moved or was overwritten", n, j.Len())
		}
	}
}
