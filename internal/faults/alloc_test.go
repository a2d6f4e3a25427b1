package faults

import (
	"runtime"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/sim"
)

// ringLoop stores iters values round-robin into a 64-word ring through a
// call per iteration, so the journal (and its checkpoint-area records)
// grows with the run while the memory footprint stays flat.
func ringLoop(t testing.TB, iters int64) *ir.Program {
	t.Helper()
	put := ir.NewFunc("put", 2)
	put.NewBlock("entry")
	sh := put.Mul(ir.R(put.Param(0)), ir.Imm(8))
	a := put.Add(ir.Imm(0x2000_0000), ir.R(sh))
	put.Store(ir.R(put.Param(1)), ir.R(a), 0)
	put.Ret(ir.R(put.Param(1)))

	fb := ir.NewFunc("main", 0)
	fb.NewBlock("entry")
	i := fb.Reg()
	fb.ConstInto(i, 0)
	head := fb.AddBlock("head")
	body := fb.AddBlock("body")
	exit := fb.AddBlock("exit")
	fb.Jmp(head)
	fb.SetBlock(head)
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(iters))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	slot := fb.Bin(ir.OpAnd, ir.R(i), ir.Imm(63))
	fb.Call("put", ir.R(slot), ir.R(i))
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(i))
	p := ir.NewProgram("ringloop")
	p.Add(put.MustDone())
	p.Add(fb.MustDone())
	p.Entry = "main"
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestCrashAllocsScaleWithWindow: resolving a fault plan and cutting the
// crash state allocate in proportion to the crash window (the unretired
// regions, the WPQ tail, the checkpoint slots), not to the run so far. A
// crash at 80% of a run allocates no more than one at 20% plus a small
// constant, once the NVM image clones (whose cost follows the footprint)
// are taken out. Covered: a sealed crash whose drain-ledger check detects
// a dropped and a reordered WPQ entry, and an unsealed crash that applies
// every fault kind to a second image.
func TestCrashAllocsScaleWithWindow(t *testing.T) {
	q := ringLoop(t, 3000)
	cfg := sim.DefaultConfig()
	cfg.Recoverable = true
	g, err := sim.New(q, cfg, sim.CWSP())
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	ledger := &Plan{Crashes: []int64{500}, Points: []Point{
		{Kind: DropWPQ, Pick: 3}, {Kind: ReorderWPQ, Pick: 1}, {Kind: CorruptCkpt, Pick: 2},
	}}
	every := &Plan{Crashes: []int64{500}, Points: []Point{
		{Kind: TornLog, Pick: 1}, {Kind: DropWPQ, Pick: 3},
		{Kind: ReorderWPQ, Pick: 1}, {Kind: CorruptCkpt, Pick: 2},
	}}
	for _, tc := range []struct {
		name     string
		plan     *Plan
		unsealed bool
		clones   float64
	}{
		{"sealed-ledger", ledger, false, 1},
		{"unsealed-every-kind", every, true, 2},
	} {
		c := cfg
		c.Unsealed = tc.unsealed
		allocs := func(permille int64) (n, bytes float64) {
			cycle := res.Stats.Cycles * permille / 1000
			m, err := sim.New(q, c, sim.CWSP())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RunUntil(cycle); err != nil {
				t.Fatal(err)
			}
			clone := func() { m.NVM.Clone() }
			crash := func() {
				cf, rep := Resolve(tc.plan, 0, m, cycle)
				for _, inj := range rep {
					if inj.Skipped {
						t.Fatalf("%s: %s point skipped at %d‰", tc.name, inj.Kind, permille)
					}
				}
				cs, err := m.CrashAtFaults(cycle, cf)
				if tc.unsealed != (err == nil) || tc.unsealed != (cs != nil) {
					t.Fatalf("%s: crash state %v, error %v", tc.name, cs != nil, err)
				}
			}
			cn, cb := allocsPerRun(clone)
			n, bytes = allocsPerRun(crash)
			return n - tc.clones*cn, bytes - tc.clones*cb
		}
		early, earlyB := allocs(200)
		late, lateB := allocs(800)
		if late > early+8 || lateB > earlyB+4096 {
			t.Errorf("%s: crash at 80%% allocates %.0f times / %.0f B (clones excluded), at 20%% %.0f / %.0f B: grows with the run",
				tc.name, late, lateB, early, earlyB)
		}
	}
}

// allocsPerRun returns f's mean allocation count and bytes over a few
// runs, after one warm-up run.
func allocsPerRun(f func()) (n, bytes float64) {
	const runs = 5
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}
