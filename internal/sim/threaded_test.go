package sim

import (
	"fmt"
	"sync"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/progen"
)

// opMatrixProgram exercises every specialized translation shape: all
// binary ops in reg×reg, reg×imm, imm×reg, and folded imm×imm forms,
// div/rem by zero, shift-amount masking, select and branch condition
// shapes, immediate-address loads/stores, and a fusable compare+branch
// loop — so the threaded backend's per-shape closures are all covered by
// one deterministic program.
func opMatrixProgram(t testing.TB) *ir.Program {
	t.Helper()
	lfb := ir.NewFunc("leaf", 1)
	x := lfb.Param(0)
	lfb.NewBlock("entry")
	lfb.Ret(ir.R(lfb.Add(ir.R(x), ir.Imm(3))))

	fb := ir.NewFunc("main", 0)
	fb.NewBlock("entry")
	const buf = int64(0x3300_0000)
	acc := fb.Reg()
	fb.ConstInto(acc, 7)
	a := fb.Const(29)
	b := fb.Const(5)
	zero := fb.Const(0)
	mix := func(r ir.Reg) {
		fb.BinInto(ir.OpXor, acc, ir.R(acc), ir.R(r))
		fb.BinInto(ir.OpAdd, acc, ir.R(acc), ir.Imm(1))
	}
	ops := []ir.Op{
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
	}
	for _, op := range ops {
		mix(fb.Bin(op, ir.R(a), ir.R(b)))   // reg × reg
		mix(fb.Bin(op, ir.R(a), ir.Imm(9))) // reg × imm
		mix(fb.Bin(op, ir.Imm(13), ir.R(b)))
		mix(fb.Bin(op, ir.Imm(40), ir.Imm(6))) // folded at translation
	}
	// Division and remainder by zero (register and immediate) yield 0.
	mix(fb.Bin(ir.OpDiv, ir.R(a), ir.R(zero)))
	mix(fb.Bin(ir.OpRem, ir.R(a), ir.Imm(0)))
	// Shift amounts beyond 63 are masked.
	mix(fb.Bin(ir.OpShl, ir.R(a), ir.Imm(67)))
	mix(fb.Bin(ir.OpShr, ir.R(a), ir.R(fb.Const(130))))
	// Mov shapes.
	mv := fb.Reg()
	fb.Mov(mv, ir.R(acc))
	fb.Mov(mv, ir.Imm(-11))
	mix(mv)
	// Select condition shapes.
	mix(fb.Select(ir.R(zero), ir.R(a), ir.Imm(21)))
	mix(fb.Select(ir.Imm(1), ir.R(b), ir.R(a)))
	mix(fb.Select(ir.Imm(0), ir.Imm(2), ir.Imm(4)))
	// Loads and stores with register and immediate bases.
	fb.Store(ir.R(acc), ir.Imm(buf), 0)
	fb.Store(ir.Imm(123), ir.R(fb.Const(buf)), 8)
	mix(fb.Load(ir.Imm(buf), 0))
	mix(fb.Load(ir.R(fb.Const(buf)), 8))
	// Call and sync ops.
	mix(fb.Call("leaf", ir.R(acc)))
	mix(fb.AtomicAdd(ir.Imm(buf), 16, ir.R(b)))
	mix(fb.AtomicCAS(ir.Imm(buf), 16, ir.R(b), ir.R(a)))
	mix(fb.AtomicXchg(ir.Imm(buf), 24, ir.Imm(77)))
	fb.Fence()
	mix(fb.Alloc(64))
	fb.Emit(ir.R(acc))

	// A fusable compare+branch loop (CmpLT reg×imm feeding Br), plus an
	// immediate-condition branch.
	i := fb.Reg()
	fb.ConstInto(i, 0)
	head := fb.AddBlock("head")
	body := fb.AddBlock("body")
	exit := fb.AddBlock("exit")
	fb.Jmp(head)
	fb.SetBlock(head)
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(50))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	fb.Store(ir.R(i), ir.Imm(buf), 32)
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.BinInto(ir.OpXor, acc, ir.R(acc), ir.R(i))
	done := fb.AddBlock("done")
	fb.Br(ir.Imm(1), done, head)
	fb.SetBlock(done)
	fb.Emit(ir.R(acc))
	fb.Ret(ir.R(acc))

	p := ir.NewProgram("opmatrix")
	p.Add(lfb.MustDone())
	p.Add(fb.MustDone())
	p.Entry = "main"
	if err := ir.VerifyProgram(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// requireSameResult compares two kernels' results field by field.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if fmt.Sprintf("%+v", got.Stats) != fmt.Sprintf("%+v", want.Stats) {
		t.Errorf("%s: stats diverged\n  got:  %+v\n  want: %+v", label, got.Stats, want.Stats)
	}
	if fmt.Sprint(got.Ret) != fmt.Sprint(want.Ret) {
		t.Errorf("%s: ret %v, want %v", label, got.Ret, want.Ret)
	}
	if fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
		t.Errorf("%s: output %v, want %v", label, got.Output, want.Output)
	}
	if !got.Mem.Equal(want.Mem) {
		t.Errorf("%s: memory images diverged at addrs %v", label, got.Mem.Diff(want.Mem, 4))
	}
	if !got.NVM.Equal(want.NVM) {
		t.Errorf("%s: NVM images diverged at addrs %v", label, got.NVM.Diff(want.NVM, 4))
	}
}

// TestThreadedOpMatrix runs the shape-matrix program on the threaded and
// reference kernels — raw under the baseline scheme and compiled (with
// checkpoints and region boundaries) under full cWSP — and requires
// identical results.
func TestThreadedOpMatrix(t *testing.T) {
	raw := opMatrixProgram(t)
	compiled, _, err := compiler.Compile(raw, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *ir.Program
		sch  Scheme
	}{
		{"base", raw, Baseline()},
		{"cwsp", compiled, CWSP()},
	}
	for _, tc := range cases {
		run := func(k KernelKind) *Result {
			cfg := DefaultConfig()
			cfg.Kernel = k
			m, err := New(tc.p, cfg, tc.sch)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		requireSameResult(t, tc.name, run(KernelThreaded), run(KernelReference))
	}
}

// TestThreadedConcurrentFirstCompile races two machines' first runs of
// one program through the translation cache: exactly one translation may
// happen, and both runs must resolve the identical closure array.
func TestThreadedConcurrentFirstCompile(t *testing.T) {
	defer SetCodeSalt("")
	SetCodeSalt("threaded-test-concurrent") // fresh cache generation
	p := opMatrixProgram(t)

	before := tcompiles.Load()
	cfg := DefaultConfig()
	cfg.Kernel = KernelThreaded
	tps := make([]*tProg, 2)
	results := make([]*Result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := New(p, cfg, Baseline())
			if err != nil {
				t.Error(err)
				return
			}
			res, err := m.Run()
			if err != nil {
				t.Error(err)
				return
			}
			tps[i] = m.tc
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := tcompiles.Load() - before; got != 1 {
		t.Errorf("two concurrent first runs translated %d times, want exactly 1", got)
	}
	if tps[0] == nil || tps[0] != tps[1] {
		t.Errorf("concurrent first runs resolved different translations: %p vs %p", tps[0], tps[1])
	}
	requireSameResult(t, "concurrent", results[1], results[0])
}

// TestThreadedSaltFlush pins the cache key contract: re-salting (what a
// ResultsSalt bump does) drops cached translations, same-salt re-runs
// reuse them.
func TestThreadedSaltFlush(t *testing.T) {
	defer SetCodeSalt("")
	SetCodeSalt("threaded-test-salt-a")
	p := opMatrixProgram(t)
	tp1 := threadedFor(p)
	if tp2 := threadedFor(p); tp2 != tp1 {
		t.Fatal("same-salt lookup re-translated the program")
	}
	SetCodeSalt("threaded-test-salt-b")
	if tp3 := threadedFor(p); tp3 == tp1 {
		t.Fatal("salt bump did not invalidate the translation cache")
	}
}

// TestThreadedCacheBounded pins the daemon-safety property: an unbounded
// stream of distinct programs cannot grow the translation cache past
// tcacheMax.
func TestThreadedCacheBounded(t *testing.T) {
	defer SetCodeSalt("")
	SetCodeSalt("threaded-test-bounded")
	for seed := int64(0); seed < tcacheMax+40; seed++ {
		p := progen.Generate(seed%7, progen.DefaultConfig()) // distinct pointers, few shapes
		threadedFor(p)
	}
	tcacheMu.Lock()
	n := len(tcache)
	tcacheMu.Unlock()
	if n > tcacheMax {
		t.Fatalf("translation cache grew to %d entries, cap is %d", n, tcacheMax)
	}
}

// TestUnknownKernelRejected pins construction-time validation of
// Config.Kernel.
func TestUnknownKernelRejected(t *testing.T) {
	p := opMatrixProgram(t)
	cfg := DefaultConfig()
	cfg.Kernel = "jit"
	if _, err := New(p, cfg, Baseline()); err == nil {
		t.Fatal("NewThreaded accepted unknown kernel \"jit\"")
	}
	cfg.Kernel = "batched" // the deleted batched kernel is gone, not aliased
	if _, err := New(p, cfg, Baseline()); err == nil {
		t.Fatal("NewThreaded accepted the removed kernel \"batched\"")
	}
	for _, k := range []KernelKind{"", KernelReference, KernelThreaded} {
		cfg.Kernel = k
		if _, err := New(p, cfg, Baseline()); err != nil {
			t.Fatalf("kernel %q rejected: %v", k, err)
		}
	}
}
