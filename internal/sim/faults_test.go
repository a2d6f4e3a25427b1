package sim

import (
	"errors"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/progen"
)

func compiledProgram(t testing.TB, seed int64) *ir.Program {
	t.Helper()
	p := progen.Generate(seed, progen.DefaultConfig())
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// storeLoopProgram builds a compiled loop with a dense store stream — big
// enough journal that every fault class has eligible victims mid-run.
func storeLoopProgram(t testing.TB) *ir.Program {
	t.Helper()
	fb := ir.NewFunc("main", 0)
	fb.NewBlock("entry")
	i := fb.Reg()
	fb.ConstInto(i, 0)
	head := fb.AddBlock("head")
	body := fb.AddBlock("body")
	exit := fb.AddBlock("exit")
	fb.Jmp(head)
	fb.SetBlock(head)
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(300))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	sh := fb.Mul(ir.R(i), ir.Imm(8))
	a := fb.Add(ir.Imm(0x2000_0000), ir.R(sh))
	v := fb.Mul(ir.R(i), ir.R(i))
	fb.Store(ir.R(v), ir.R(a), 0)
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(i))
	p := ir.NewProgram("storeloop")
	p.Add(fb.MustDone())
	p.Entry = "main"
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// machineWhere advances one machine through candidate crash cycles until
// pick finds a victim, returning the machine, the crash cycle, and the
// pick's result.
func machineWhere[V any](t testing.TB, q *ir.Program, cfg Config, pick func(m *Machine, cycle int64) (V, bool)) (*Machine, int64, V) {
	t.Helper()
	total := recoverableRun(t, q, cfg).Stats.Cycles
	m := mustMachine(t, q, cfg)
	for frac := int64(1); frac <= 19; frac++ {
		cycle := total * frac / 20
		if cycle < 1 {
			cycle = 1
		}
		if err := m.RunUntil(cycle); err != nil {
			t.Fatal(err)
		}
		if v, ok := pick(m, cycle); ok {
			return m, cycle, v
		}
	}
	t.Fatal("no crash cycle offers an eligible fault victim")
	panic("unreachable")
}

func recoverableRun(t testing.TB, q *ir.Program, cfg Config) *Result {
	t.Helper()
	m, err := New(q, cfg, CWSP())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// midCrashCycle picks a crash cycle with work still in flight.
func midCrashCycle(t testing.TB, q *ir.Program, cfg Config) int64 {
	t.Helper()
	res := recoverableRun(t, q, cfg)
	crash := res.Stats.Cycles / 2
	if crash < 1 {
		crash = 1
	}
	return crash
}

// TestCrashRestartScanIgnoresRegionOrder: the restart point is the explicit
// minimum-Seq unretired region per core, regardless of descriptor-log
// order. A battery-buffered scheme can retire regions out of order and a
// reordered log must not move the restart point (regression: the scan once
// took the first unretired list entry).
func TestCrashRestartScanIgnoresRegionOrder(t *testing.T) {
	q := compiledProgram(t, 11)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	crash := midCrashCycle(t, q, cfg)

	base, err := mustMachine(t, q, cfg).CrashAt(crash)
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(q, cfg, CWSP())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(crash); err != nil {
		t.Fatal(err)
	}
	// Reverse the descriptor log: newest region first.
	for i, j := 0, len(m.Regions)-1; i < j; i, j = i+1, j-1 {
		m.Regions[i], m.Regions[j] = m.Regions[j], m.Regions[i]
	}
	cs, err := m.CrashAt(crash)
	if err != nil {
		t.Fatal(err)
	}

	if len(cs.Restarts) != len(base.Restarts) {
		t.Fatalf("restart count %d != baseline %d", len(cs.Restarts), len(base.Restarts))
	}
	for i := range cs.Restarts {
		got, want := cs.Restarts[i], base.Restarts[i]
		if got.Done != want.Done || got.Region.Seq != want.Region.Seq {
			t.Fatalf("core %d: restart (done=%v seq=%d) != baseline (done=%v seq=%d) after region-log reversal",
				i, got.Done, got.Region.Seq, want.Done, want.Region.Seq)
		}
	}
	if !cs.NVM.Equal(base.NVM) {
		t.Fatal("reconstructed NVM changed under region-log reversal")
	}
}

func mustMachine(t testing.TB, q *ir.Program, cfg Config) *Machine {
	t.Helper()
	m, err := New(q, cfg, CWSP())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestJournalRecordsSealed: every journal record carries a valid seal over
// all its fields, and admitted WPQ entries carry their controller's
// admission ordinal.
func TestJournalRecordsSealed(t *testing.T) {
	q := compiledProgram(t, 3)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	m := mustMachine(t, q, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Journal.Len() == 0 {
		t.Fatal("no journal records")
	}
	admitted := 0
	for i := 0; i < m.Journal.Len(); i++ {
		rec := *m.Journal.At(i)
		if sealRec(&rec) != rec.Seal {
			t.Fatalf("journal[%d] (addr %#x) seal mismatch", i, rec.Addr)
		}
		if rec.MCSeq > 0 {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("no WPQ-admitted records carry an MCSeq ordinal")
	}
}

// tornVictim finds a journal index whose undo value recovery will read: a
// logged record of a region unretired at the crash cycle.
func tornVictim(m *Machine, crash int64) (int, bool) {
	retired := map[int64]bool{}
	for _, ri := range m.Regions {
		if ri.Retire <= crash {
			retired[ri.Seq] = true
		}
	}
	// Require the address's first journal record, so the torn undo value is
	// what reconstruction's reverse walk leaves on media (an older record
	// rolling back the same word would mask the fault in the unsealed
	// control).
	first := map[int64]int{}
	for i := 0; i < m.Journal.Len(); i++ {
		if _, ok := first[m.Journal.At(i).Addr]; !ok {
			first[m.Journal.At(i).Addr] = i
		}
	}
	for i := 0; i < m.Journal.Len(); i++ {
		if m.Journal.At(i).Logged && !retired[m.Journal.At(i).Region] && first[m.Journal.At(i).Addr] == i {
			return i, true
		}
	}
	return -1, false
}

// TestTornLogDetected: a torn undo-log record fails its seal check and
// surfaces as a typed undo-log CorruptionError — and with validation
// disabled the same fault corrupts the reconstruction silently.
func TestTornLogDetected(t *testing.T) {
	q := storeLoopProgram(t)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	m, crash, victim := machineWhere(t, q, cfg, tornVictim)
	cf := &CrashFaults{TornOld: map[int]uint64{victim: 0xffffffff00000000}}

	_, err := m.CrashAtFaults(crash, cf)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("torn log not detected: err=%v", err)
	}
	if ce.Kind != "undo-log" || ce.Index != victim {
		t.Fatalf("wrong detection: %+v", ce)
	}

	// Negative control: unsealed, the torn value flows into the image.
	ucfg := cfg
	ucfg.Unsealed = true
	um := mustMachine(t, q, ucfg)
	ucs, err := um.CrashAtFaults(crash, &CrashFaults{TornOld: map[int]uint64{victim: 0xffffffff00000000}})
	if err != nil {
		t.Fatalf("unsealed crash must not error: %v", err)
	}
	clean, err := mustMachine(t, q, ucfg).CrashAt(crash)
	if err != nil {
		t.Fatal(err)
	}
	if ucs.NVM.Equal(clean.NVM) {
		t.Fatal("unsealed torn log left no trace — fault was not injected")
	}
}

// wpqVictims finds two adjacent-ordinal admitted entries of one MC.
func wpqVictims(m *Machine, crash int64) ([2]int, bool) {
	byMC := map[int]map[int64]int{}
	for i := 0; i < m.Journal.Len(); i++ {
		rec := m.Journal.At(i)
		if rec.MCSeq == 0 || rec.Admit > crash {
			continue
		}
		if byMC[rec.MC] == nil {
			byMC[rec.MC] = map[int64]int{}
		}
		byMC[rec.MC][rec.MCSeq] = i
	}
	for _, seqs := range byMC {
		for seq, i := range seqs {
			if j, ok := seqs[seq+1]; ok {
				return [2]int{i, j}, true
			}
		}
	}
	return [2]int{}, false
}

// TestDroppedWPQEntryDetected: an admitted entry missing from the drain
// ledger is a wpq-ledger CorruptionError.
func TestDroppedWPQEntryDetected(t *testing.T) {
	q := storeLoopProgram(t)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	m, crash, pair := machineWhere(t, q, cfg, wpqVictims)
	_, err := m.CrashAtFaults(crash, &CrashFaults{Drop: map[int]bool{pair[0]: true}})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("dropped WPQ entry not detected: err=%v", err)
	}
	if ce.Kind != "wpq-ledger" {
		t.Fatalf("wrong detection kind: %+v", ce)
	}
}

// TestReorderedWPQPairDetected: two same-MC entries drained out of FIFO
// order invert the drain ledger.
func TestReorderedWPQPairDetected(t *testing.T) {
	q := storeLoopProgram(t)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	m, crash, pair := machineWhere(t, q, cfg, wpqVictims)
	_, err := m.CrashAtFaults(crash, &CrashFaults{Reorder: [][2]int{{pair[0], pair[1]}}})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("reordered WPQ pair not detected: err=%v", err)
	}
	if ce.Kind != "wpq-ledger" {
		t.Fatalf("wrong detection kind: %+v", ce)
	}
}

// TestCkptCorruptionDetectedAtResume: a flipped checkpoint word passes
// journal validation (it strikes media, not the log) but fails NewResumed's
// seal scrub before any instruction executes.
func TestCkptCorruptionDetectedAtResume(t *testing.T) {
	q := compiledProgram(t, 11)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	crash := midCrashCycle(t, q, cfg)

	m := mustMachine(t, q, cfg)
	if err := m.RunUntil(crash); err != nil {
		t.Fatal(err)
	}
	addrs := m.SealedCkptAddrs()
	if len(addrs) == 0 {
		t.Skip("no checkpoint-area writes by this crash cycle")
	}
	addr := addrs[len(addrs)/2]
	cs, err := m.CrashAtFaults(crash, &CrashFaults{CkptXOR: map[int64]uint64{addr: 0xdead_beef}})
	if err != nil {
		t.Fatalf("ckpt corruption must survive reconstruction (detection is at resume): %v", err)
	}
	_, err = NewResumed(q, cfg, CWSP(), []ThreadSpec{{Fn: q.Entry}}, cs)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt checkpoint slot not detected at resume: err=%v", err)
	}
	if ce.Kind != "ckpt-slot" || ce.Addr != addr {
		t.Fatalf("wrong detection: %+v", ce)
	}
}

// TestCrashAtFaultsEmptyMatchesCrashAt: a nil/empty fault set is exactly
// the fault-free protocol.
func TestCrashAtFaultsEmptyMatchesCrashAt(t *testing.T) {
	q := compiledProgram(t, 7)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	crash := midCrashCycle(t, q, cfg)

	a, err := mustMachine(t, q, cfg).CrashAt(crash)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustMachine(t, q, cfg).CrashAtFaults(crash, &CrashFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.NVM.Equal(b.NVM) {
		t.Fatal("empty fault set changed the reconstruction")
	}
	if len(a.Seals) != len(b.Seals) {
		t.Fatalf("seal tables differ: %d vs %d", len(a.Seals), len(b.Seals))
	}
}
