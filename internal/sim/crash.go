package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cwsp/internal/mem"
)

// CrashState is what survives a power failure at a given cycle: the
// rolled-back NVM image and, per core, the oldest-unpersisted-region
// descriptor that recovery restarts from (paper Section VII).
type CrashState struct {
	Cycle    int64
	NVM      *mem.PagedMem
	Restarts []Restart

	// Seals is the checkpoint-area seal table (addr -> SealWord of the
	// correctly reconstructed content). NewResumed scrubs the recovered
	// image against it before executing a single instruction, so a
	// corrupted slot is reported instead of silently replayed into
	// registers. Hardware analogue: the MC writes per-slot checksums
	// transactionally with every checkpoint and undo write.
	Seals map[int64]uint64
}

// Restart is one core's recovery point.
type Restart struct {
	Core   int
	Done   bool // the core finished and every region persisted: nothing to do
	Region RegionInfo
}

// CrashAt runs the machine until the crash cycle, then performs the
// recovery protocol's NVM reconstruction:
//
//  1. persists that had not been admitted to a WPQ by the crash never
//     reached NVM — undone in reverse order;
//  2. undo logs of every unretired region (speculative stores and
//     checkpoint-area stores) roll back, newest first;
//  3. each core's restart point is its oldest region whose stores had not
//     all persisted.
//
// Requires Config.Recoverable.
func (m *Machine) CrashAt(cycle int64) (*CrashState, error) {
	return m.CrashAtFaults(cycle, nil)
}

// CrashAtFaults is CrashAt with adversarial hardware corruption injected at
// the power-failure instant (see internal/faults): torn undo-log records,
// dropped or reordered WPQ tail entries, and corrupted checkpoint-area
// words. Unless Config.Unsealed is set, the reconstruction validates every
// sealed structure it reads and returns a *CorruptionError naming the
// faulted record instead of a corrupted crash state; checkpoint-word
// corruption is detected later, by NewResumed's seal scrub.
func (m *Machine) CrashAtFaults(cycle int64, cf *CrashFaults) (*CrashState, error) {
	if !m.Cfg.Recoverable {
		return nil, fmt.Errorf("sim: CrashAt requires Config.Recoverable")
	}
	if err := m.RunUntil(cycle); err != nil {
		return nil, err
	}

	retired := m.RetiredBy(cycle)

	// Ground-truth reconstruction: what a fault-free power loss leaves.
	// The seal table is derived from it — hardware sealed every protected
	// write as it happened, before any fault could strike.
	clean := m.NVM.Clone()
	m.reconstruct(clean, cycle, retired, nil)
	cs := &CrashState{Cycle: cycle, NVM: clean, Seals: m.sealCkptArea(clean)}

	if !cf.Empty() {
		if !m.Cfg.Unsealed {
			if err := m.validateJournal(cycle, cf); err != nil {
				return nil, err
			}
		}
		faulty := m.NVM.Clone()
		m.reconstruct(faulty, cycle, retired, cf)
		// Apply checkpoint-word corruption in sorted address order: the final
		// image is order-independent (each word is XORed once), but the store
		// order must not inherit map iteration order — every observable side
		// effect of a crash has to be bit-reproducible across runs.
		xaddrs := make([]int64, 0, len(cf.CkptXOR))
		for addr := range cf.CkptXOR {
			xaddrs = append(xaddrs, addr)
		}
		slices.Sort(xaddrs)
		for _, addr := range xaddrs {
			faulty.Store(addr, faulty.Load(addr)^int64(cf.CkptXOR[addr]))
		}
		cs.NVM = faulty
	}

	// Restart points: per core, the oldest (minimum-Seq) unretired region.
	// Per-core retire times need not be monotone (battery-buffered schemes
	// retire out of order, and a descriptor log reordered by a caller must
	// not change the answer), so take the explicit minimum instead of
	// trusting list order.
	oldest := make([]*RegionInfo, len(m.cores))
	for _, ri := range m.Regions {
		if ri.Retire > cycle && (oldest[ri.Core] == nil || ri.Seq < oldest[ri.Core].Seq) {
			oldest[ri.Core] = ri
		}
	}
	for _, c := range m.cores {
		r := Restart{Core: c.id, Done: true}
		if o := oldest[c.id]; o != nil {
			r.Done = false
			r.Region = *o
		}
		if r.Done && !c.done {
			// The core was still executing but every *closed* region
			// persisted; its open region is the restart point.
			if c.cur != nil {
				r.Done = false
				r.Region = *c.cur.info
			}
		}
		cs.Restarts = append(cs.Restarts, r)
	}
	return cs, nil
}

// RetiredBy returns a predicate reporting whether region seq had fully
// persisted by cycle — the regions whose undo logs a crash at cycle no
// longer rolls back. openRegion appends the descriptor log in Seq order
// from 1, so the log is its own index (Regions[seq-1]); a log a caller
// reordered is indexed through a sorted copy.
func (m *Machine) RetiredBy(cycle int64) func(seq int64) bool {
	bySeq := m.Regions
	for i, ri := range m.Regions {
		if ri.Seq != int64(i+1) {
			bySeq = slices.Clone(m.Regions)
			slices.SortFunc(bySeq, func(a, b *RegionInfo) int { return cmp.Compare(a.Seq, b.Seq) })
			break
		}
	}
	return func(seq int64) bool {
		return seq >= 1 && seq <= int64(len(bySeq)) && bySeq[seq-1].Retire <= cycle
	}
}

// reconstruct rewinds img (a clone of the crash-instant NVM image) to the
// state recovery begins from, walking the journal newest-first: entries not
// admitted by the crash never reached media, and logged entries of
// unretired regions roll back via the MC undo logs. A non-nil cf overlays
// hardware faults without mutating the journal.
func (m *Machine) reconstruct(img *mem.PagedMem, cycle int64, retired func(int64) bool, cf *CrashFaults) {
	for i := m.Journal.Len() - 1; i >= 0; i-- {
		rec := m.Journal.At(i)
		old := rec.Old
		admitted := rec.Admit <= cycle
		if cf != nil {
			if x, ok := cf.TornOld[i]; ok {
				old ^= int64(x)
			}
			if cf.Drop[i] {
				admitted = false // the WPQ lied: the entry never drained
			}
		}
		if !admitted {
			img.Store(rec.Addr, old) // never reached NVM
			continue
		}
		if rec.Logged && !retired(rec.Region) {
			img.Store(rec.Addr, old) // rolled back via MC undo log
		}
	}
	if cf == nil {
		return
	}
	// Reordered drains: when both entries survived reconstruction and hit
	// the same word, the older value drains last and wins on media.
	for _, pr := range cf.Reorder {
		i, j := pr[0], pr[1]
		if i < 0 || j < 0 || i >= m.Journal.Len() || j >= m.Journal.Len() {
			continue
		}
		if j < i {
			i, j = j, i
		}
		ri, rj := m.Journal.At(i), m.Journal.At(j)
		if cf.Drop[i] || cf.Drop[j] || ri.Admit > cycle || rj.Admit > cycle {
			continue
		}
		if ri.Logged && !retired(ri.Region) || rj.Logged && !retired(rj.Region) {
			continue // rollback already erased the pair's effect
		}
		if ri.Addr == rj.Addr {
			img.Store(ri.Addr, ri.New)
		}
	}
}

// validateJournal performs the recovery-side integrity checks over the
// faulted journal view: per-record seals (torn undo-log writes) and the
// per-MC drain ledger (dropped or reordered WPQ tail entries; the ledger
// models the sequence-numbered drain journal the controller persists as
// entries reach media).
func (m *Machine) validateJournal(cycle int64, cf *CrashFaults) error {
	// Seal check on every record the reconstruction will read, in journal
	// order so the reported record is deterministic.
	torn := make([]int, 0, len(cf.TornOld))
	for i := range cf.TornOld {
		torn = append(torn, i)
	}
	slices.Sort(torn)
	for _, i := range torn {
		if i < 0 || i >= m.Journal.Len() {
			continue
		}
		rec := *m.Journal.At(i) // copy; apply the torn read
		rec.Old ^= int64(cf.TornOld[i])
		if sealRec(&rec) != m.Journal.At(i).Seal {
			return &CorruptionError{
				Kind: "undo-log", Addr: rec.Addr, Index: i,
				Detail: fmt.Sprintf("record content does not match its seal (old=%#x)", rec.Old),
			}
		}
	}

	// Drain-ledger cross-check: the journal's admitted MCSeq stream per
	// controller, versus the media-side drain order after faults. Only a
	// faulted entry can break a controller's ledger, so each controller's
	// faulted entries are checked in seq order and the rest of its stream
	// is only counted, for the positions the diagnosis names.
	type ent struct {
		idx int
		seq int64
	}
	ledgered := func(i int) (ent, int, bool) { // an admitted WPQ entry and its MC
		if i < 0 || i >= m.Journal.Len() {
			return ent{}, 0, false
		}
		rec := m.Journal.At(i)
		return ent{i, rec.MCSeq}, rec.MC, rec.MCSeq != 0 && rec.Admit <= cycle
	}
	below := func(mc int, seq int64) int { // mc's admitted entries before seq
		n := 0
		for i := 0; i < m.Journal.Len(); i++ {
			if rec := m.Journal.At(i); rec.MC == mc && rec.MCSeq != 0 && rec.MCSeq < seq && rec.Admit <= cycle {
				n++
			}
		}
		return n
	}
	faulted := map[int][]ent{}
	for i, d := range cf.Drop {
		if e, mc, ok := ledgered(i); ok && d {
			faulted[mc] = append(faulted[mc], e)
		}
	}
	for _, pr := range cf.Reorder {
		for _, i := range pr {
			if e, mc, ok := ledgered(i); ok && !slices.Contains(faulted[mc], e) {
				faulted[mc] = append(faulted[mc], e)
			}
		}
	}
	mcs := make([]int, 0, len(faulted))
	for mc := range faulted {
		mcs = append(mcs, mc)
	}
	slices.Sort(mcs)
	for _, mc := range mcs {
		expect := faulted[mc]
		slices.SortFunc(expect, func(a, b ent) int { return cmp.Compare(a.seq, b.seq) })
		ledger := make([]ent, 0, len(expect))
		for _, e := range expect {
			if !cf.Drop[e.idx] {
				ledger = append(ledger, e)
			}
		}
		if len(ledger) != len(expect) {
			missing := int64(-1)
			for k, e := range expect {
				if k >= len(ledger) || ledger[k] != e {
					missing = e.seq
					break
				}
			}
			n := below(mc, math.MaxInt64)
			return &CorruptionError{
				Kind: "wpq-ledger", MC: mc, Seq: missing,
				Detail: fmt.Sprintf("%d admitted entries, %d drained", n, n-len(expect)+len(ledger)),
			}
		}
		for _, pr := range cf.Reorder {
			a := slices.IndexFunc(ledger, func(e ent) bool { return e.idx == pr[0] })
			b := slices.IndexFunc(ledger, func(e ent) bool { return e.idx == pr[1] })
			if a >= 0 && b >= 0 {
				ledger[a], ledger[b] = ledger[b], ledger[a]
			}
		}
		for k := range expect {
			if ledger[k] != expect[k] {
				return &CorruptionError{
					Kind: "wpq-ledger", MC: mc, Seq: expect[k].seq,
					Detail: fmt.Sprintf("drain order inverted (drained seq %d at position %d)",
						ledger[k].seq, below(mc, expect[k].seq)),
				}
			}
		}
	}
	return nil
}

// sealCkptArea seals every checkpoint-area word the journal touched,
// against its content in the correctly reconstructed image.
func (m *Machine) sealCkptArea(img *mem.PagedMem) map[int64]uint64 {
	seals := make(map[int64]uint64, len(m.ckptAddrs))
	for _, addr := range m.ckptAddrs {
		seals[addr] = SealWord(addr, img.Load(addr))
	}
	return seals
}

// SealedCkptAddrs returns the sorted checkpoint-area addresses the journal
// has touched so far — the slots a checkpoint-corruption fault can target
// (and exactly the set NewResumed scrubs).
func (m *Machine) SealedCkptAddrs() []int64 {
	return slices.Clone(m.ckptAddrs)
}

// MaxRetire reports the latest region retirement time (useful to pick
// crash cycles that still have work in flight).
func (m *Machine) MaxRetire() int64 {
	var max int64
	for _, ri := range m.Regions {
		if ri.Retire != math.MaxInt64 && ri.Retire > max {
			max = ri.Retire
		}
	}
	return max
}
