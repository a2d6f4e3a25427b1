package sim

import (
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/nvmtech"
	"cwsp/internal/progen"
)

// storeLoop builds a kernel writing n sequential words at base.
func storeLoop(t testing.TB, base, n int64) *ir.Program {
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
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(n))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	off := fb.Mul(ir.R(i), ir.Imm(8))
	a := fb.Add(ir.Imm(base), ir.R(off))
	v := fb.Add(ir.R(i), ir.Imm(1))
	fb.Store(ir.R(v), ir.R(a), 0)
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(i))
	p := ir.NewProgram("storeloop")
	p.Add(fb.MustDone())
	p.Entry = "main"
	return p
}

func compileT(t testing.TB, p *ir.Program) *ir.Program {
	t.Helper()
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestL3Hierarchy(t *testing.T) {
	p := progen.Generate(4, progen.DefaultConfig())
	cfg := DefaultConfig().WithL3()
	if cfg.L3Bytes == 0 || cfg.L2Bytes >= cfg.L3Bytes {
		t.Fatalf("WithL3 misconfigured: L2=%d L3=%d", cfg.L2Bytes, cfg.L3Bytes)
	}
	res := runBoth(t, p, cfg, Baseline())
	if res.Stats.Instrs == 0 {
		t.Fatal("no execution")
	}
}

func TestWithNVMChangesLatency(t *testing.T) {
	p := storeLoop(t, 0x3000_0000, 4096) // > L2, misses reach memory
	slow := runBoth(t, p, DefaultConfig().WithNVM(nvmtech.PMEM), Baseline())
	fast := runBoth(t, p, DefaultConfig().WithNVM(nvmtech.DRAM), Baseline())
	if fast.Stats.Cycles > slow.Stats.Cycles {
		t.Errorf("DRAM-backed run (%d) slower than PMEM (%d)", fast.Stats.Cycles, slow.Stats.Cycles)
	}
}

func TestPSPSchemeReachesNVM(t *testing.T) {
	p := storeLoop(t, 0x3000_0000, 64<<10) // 512KB: misses L1, fits L2... use loads too
	psp := Scheme{Name: "psp-ideal"}
	m, err := New(p, DefaultConfig(), psp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DRAMAccs != 0 {
		t.Error("PSP must not touch the DRAM cache")
	}
}

func TestEmitBufferPersists(t *testing.T) {
	fb := ir.NewFunc("main", 0)
	fb.NewBlock("entry")
	fb.Emit(ir.Imm(11))
	fb.Emit(ir.Imm(22))
	fb.Emit(ir.Imm(33))
	fb.RetVoid()
	p := ir.NewProgram("emits")
	p.Add(fb.MustDone())
	p.Entry = "main"
	q := compileT(t, p)
	res := runBoth(t, q, DefaultConfig(), CWSP())
	if res.NVM.Load(EmitBase) != 3 {
		t.Errorf("emit count in NVM = %d, want 3", res.NVM.Load(EmitBase))
	}
	for i, want := range []int64{11, 22, 33} {
		if got := res.NVM.Load(EmitBase + 8*int64(i+1)); got != want {
			t.Errorf("emit[%d] = %d, want %d", i, got, want)
		}
	}
	if len(res.Output) != 3 || res.Output[1] != 22 {
		t.Errorf("Output = %v", res.Output)
	}
}

func TestSpillRestoreTraffic(t *testing.T) {
	// A call with live-across registers must generate spill stores and
	// restore loads.
	leaf := ir.NewFunc("leaf", 1)
	leaf.NewBlock("entry")
	r := leaf.Add(ir.R(leaf.Param(0)), ir.Imm(1))
	leaf.Ret(ir.R(r))

	fb := ir.NewFunc("main", 0)
	fb.NewBlock("entry")
	x := fb.Const(41)
	y := fb.Const(58)
	rv := fb.Call("leaf", ir.R(x))
	s := fb.Add(ir.R(rv), ir.R(y)) // y lives across the call
	fb.Ret(ir.R(s))
	p := ir.NewProgram("call")
	p.Add(leaf.MustDone())
	p.Add(fb.MustDone())
	p.Entry = "main"
	q := compileT(t, p)

	res := runBoth(t, q, DefaultConfig(), CWSP())
	if res.Ret[0] != 100 {
		t.Errorf("result = %d, want 100", res.Ret[0])
	}
	if res.Stats.SpillStores == 0 || res.Stats.RestoreLoads == 0 {
		t.Errorf("no spill/restore traffic: %d/%d", res.Stats.SpillStores, res.Stats.RestoreLoads)
	}
	// Frame records live on the per-core stack in NVM.
	foundRecord := false
	for a := StackStart(0); a < StackStart(0)+512; a += 8 {
		if res.NVM.Load(a) != 0 {
			foundRecord = true
			break
		}
	}
	if !foundRecord {
		t.Error("no frame record persisted on the stack")
	}
}

func TestWPQDelayCountsHits(t *testing.T) {
	// Store then immediately load a large streaming region beyond all
	// caches: some loads must find their word pending in a WPQ.
	fb := ir.NewFunc("main", 0)
	fb.NewBlock("entry")
	i := fb.Reg()
	s := fb.Reg()
	fb.ConstInto(i, 0)
	fb.ConstInto(s, 0)
	head := fb.AddBlock("head")
	body := fb.AddBlock("body")
	exit := fb.AddBlock("exit")
	fb.Jmp(head)
	fb.SetBlock(head)
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(3000))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	// Store a line, then read a word stored a few lines earlier: with tiny
	// caches it has been evicted, and with slow NVM media its WPQ entry is
	// still pending.
	off := fb.Mul(ir.R(i), ir.Imm(64))
	a := fb.Add(ir.Imm(0x3000_0000), ir.R(off))
	fb.Store(ir.R(i), ir.R(a), 0)
	back := fb.Sub(ir.R(a), ir.Imm(20*64))
	v := fb.Load(ir.R(back), 0)
	fb.BinInto(ir.OpAdd, s, ir.R(s), ir.R(v))
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(s))
	p := ir.NewProgram("wpqhit")
	p.Add(fb.MustDone())
	p.Entry = "main"
	q := compileT(t, p)

	cfg := DefaultConfig()
	cfg.DRAMBytes = 0  // force loads to NVM
	cfg.L1DBytes = 512 // tiny caches: the read-back address is evicted
	cfg.L2Bytes = 1024
	sch := CWSP()
	sch.DRAMCache = false
	cfg.NVMWriteBPC = 0.02 // very slow media: WPQ entries linger
	m, err := New(q, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WPQHits == 0 {
		t.Error("expected WPQ hits for immediate read-after-write at NVM distance")
	}
	if res.Stats.WPQLoadDelay == 0 {
		t.Error("WPQDelay scheme should charge delay cycles on hits")
	}
}

func TestRecoverableJournalGrows(t *testing.T) {
	p := progen.Generate(6, progen.DefaultConfig())
	q := compileT(t, p)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	m, err := New(q, cfg, CWSP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Journal.Len() == 0 || len(m.Regions) == 0 {
		t.Error("recoverable run must journal persists and regions")
	}
	// Non-recoverable runs must not pay the memory cost.
	cfg.Recoverable = false
	m2, err := New(q, cfg, CWSP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if m2.Journal.Len() != 0 || len(m2.Regions) != 0 {
		t.Error("non-recoverable run journaled anyway")
	}
}

func TestThreadSpecValidation(t *testing.T) {
	p := progen.Generate(1, progen.DefaultConfig())
	if _, err := NewThreaded(p, DefaultConfig(), Baseline(), nil); err == nil {
		t.Error("no threads should fail")
	}
	if _, err := NewThreaded(p, DefaultConfig(), Baseline(),
		[]ThreadSpec{{Fn: "nope"}}); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := NewThreaded(p, DefaultConfig(), Baseline(),
		[]ThreadSpec{{Fn: "main", Args: []int64{1, 2, 3}}}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	// An infinite loop must hit the instruction cap, not hang.
	fb := ir.NewFunc("main", 0)
	b := fb.NewBlock("entry")
	fb.Jmp(b)
	p := ir.NewProgram("spin")
	p.Add(fb.MustDone())
	p.Entry = "main"
	cfg := DefaultConfig()
	cfg.MaxSteps = 10_000
	m, err := New(p, cfg, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("expected livelock error")
	}
}

func TestCkptSlotLayout(t *testing.T) {
	a := CkptSlot(0, 0, 0)
	b := CkptSlot(0, 0, 1)
	c := CkptSlot(0, 1, 0)
	d := CkptSlot(1, 0, 0)
	if b-a != 8 {
		t.Errorf("register stride = %d, want 8", b-a)
	}
	if c-a != MaxFrameRegs*8 {
		t.Errorf("depth stride = %d, want %d", c-a, MaxFrameRegs*8)
	}
	if d-a != CkptStride {
		t.Errorf("core stride = %d, want %d", d-a, CkptStride)
	}
	if !IsCkptArea(a) || IsCkptArea(StackStart(0)) || IsCkptArea(EmitBase) {
		t.Error("IsCkptArea misclassifies")
	}
}

func TestResumeRejectsCorruptState(t *testing.T) {
	p := progen.Generate(2, progen.DefaultConfig())
	q := compileT(t, p)
	cfg := DefaultConfig()
	cfg.Recoverable = true
	m, err := New(q, cfg, CWSP())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := m.CrashAt(500)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the restart descriptor: unknown function.
	if len(cs.Restarts) > 0 && !cs.Restarts[0].Done {
		bad := *cs
		bad.Restarts = append([]Restart(nil), cs.Restarts...)
		bad.Restarts[0].Region.Fn = "no-such-fn"
		if _, err := NewResumed(q, cfg, CWSP(), []ThreadSpec{{Fn: q.Entry}}, &bad); err == nil {
			t.Error("resume accepted a corrupt restart function")
		}
		bad2 := *cs
		bad2.Restarts = append([]Restart(nil), cs.Restarts...)
		bad2.Restarts[0].Region.StaticID = 9999
		if _, err := NewResumed(q, cfg, CWSP(), []ThreadSpec{{Fn: q.Entry}}, &bad2); err == nil {
			t.Error("resume accepted a missing recovery slice")
		}
	}
}

func TestCrashAtRequiresRecoverable(t *testing.T) {
	p := progen.Generate(2, progen.DefaultConfig())
	q := compileT(t, p)
	m, err := New(q, DefaultConfig(), CWSP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CrashAt(100); err == nil {
		t.Error("CrashAt must demand Config.Recoverable")
	}
}

// Halted reports whether the machine finished or froze at a crash point.
func TestHaltedFlag(t *testing.T) {
	p := progen.Generate(1, progen.DefaultConfig())
	m, err := New(p, DefaultConfig(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if m.Halted() {
		t.Error("fresh machine should not be halted")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Error("completed machine should be halted")
	}
}
