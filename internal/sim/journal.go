package sim

import "cwsp/internal/persist"

// journalBlockBits sizes the journal's storage blocks: 1<<10 records
// (80 KiB) each.
const journalBlockBits = 10

// Journal is the persist-event journal (Recoverable only): one record per
// persisted store, in commit order, addressed by absolute index — the
// indexes fault plans, CrashFaults and CorruptionError name. Records live
// in fixed-size blocks, so an append never copies earlier records and a
// record's address is stable for the machine's lifetime.
type Journal struct {
	blocks []*[1 << journalBlockBits]persist.Rec
	n      int
}

// Len returns the number of records.
func (j *Journal) Len() int { return j.n }

// At returns record i, 0 <= i < Len().
func (j *Journal) At(i int) *persist.Rec {
	if uint(i) >= uint(j.n) {
		panic("sim: journal index out of range")
	}
	return &j.blocks[i>>journalBlockBits][i&(1<<journalBlockBits-1)]
}

// add appends a zeroed record and returns it for filling in.
func (j *Journal) add() *persist.Rec {
	if j.n>>journalBlockBits == len(j.blocks) {
		j.blocks = append(j.blocks, new([1 << journalBlockBits]persist.Rec))
	}
	j.n++
	return j.At(j.n - 1)
}
