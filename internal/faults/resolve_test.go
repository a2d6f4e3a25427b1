package faults

import (
	"reflect"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/sim"
)

func storeLoop(t testing.TB) *ir.Program {
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
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(200))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	sh := fb.Mul(ir.R(i), ir.Imm(8))
	a := fb.Add(ir.Imm(0x2000_0000), ir.R(sh))
	fb.Store(ir.R(i), ir.R(a), 0)
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(i))
	p := ir.NewProgram("resolveloop")
	p.Add(fb.MustDone())
	p.Entry = "main"
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func machineAt(t testing.TB, q *ir.Program, cycle int64) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Recoverable = true
	m, err := sim.New(q, cfg, sim.CWSP())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(cycle); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestResolveDeterministic: the same plan against the same machine state
// resolves to identical concrete faults and an identical report.
func TestResolveDeterministic(t *testing.T) {
	q := storeLoop(t)
	plan := NewPlan(9, GenOptions{Depth: 1, Points: 6})
	const cycle = 2000

	cf1, rep1 := Resolve(plan, 0, machineAt(t, q, cycle), cycle)
	cf2, rep2 := Resolve(plan, 0, machineAt(t, q, cycle), cycle)
	if !reflect.DeepEqual(cf1, cf2) || !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("resolution not deterministic:\n%+v\n%+v", rep1, rep2)
	}
	if len(rep1) != 6 {
		t.Fatalf("expected 6 injection records, got %d", len(rep1))
	}
}

// TestResolveTargetsAreEligible: every non-skipped injection names a victim
// that actually satisfies its kind's eligibility rule.
func TestResolveTargetsAreEligible(t *testing.T) {
	q := storeLoop(t)
	const cycle = 2000
	m := machineAt(t, q, cycle)
	plan := NewPlan(23, GenOptions{Depth: 1, Points: 12})
	cf, report := Resolve(plan, 0, m, cycle)

	retired := map[int64]bool{}
	for _, ri := range m.Regions {
		if ri.Retire <= cycle {
			retired[ri.Seq] = true
		}
	}
	landed := 0
	for _, inj := range report {
		if inj.Skipped {
			continue
		}
		landed++
		switch inj.Kind {
		case TornLog:
			rec := m.Journal.At(inj.Index)
			if !rec.Logged || retired[rec.Region] {
				t.Errorf("torn-log victim journal[%d] is not a rollback target", inj.Index)
			}
			if _, ok := cf.TornOld[inj.Index]; !ok {
				t.Errorf("torn-log report/faults mismatch at %d", inj.Index)
			}
		case DropWPQ:
			rec := m.Journal.At(inj.Index)
			if rec.MCSeq == 0 || rec.Admit > cycle {
				t.Errorf("drop-wpq victim journal[%d] was never admitted", inj.Index)
			}
		case ReorderWPQ:
			a, b := m.Journal.At(inj.Index), m.Journal.At(inj.Index2)
			if a.MC != b.MC || b.MCSeq != a.MCSeq+1 {
				t.Errorf("reorder-wpq pair (%d,%d) not adjacent same-MC", inj.Index, inj.Index2)
			}
		case CorruptCkpt:
			if !sim.IsCkptArea(inj.Addr) {
				t.Errorf("corrupt-ckpt victim %#x outside the checkpoint area", inj.Addr)
			}
			if _, ok := cf.CkptXOR[inj.Addr]; !ok {
				t.Errorf("corrupt-ckpt report/faults mismatch at %#x", inj.Addr)
			}
		}
	}
	if landed == 0 {
		t.Fatal("no fault point found an eligible victim mid-run")
	}
}

// TestResolveEarlyCrashSkips: at cycle 1 nothing is admitted or logged, so
// journal-targeting points skip rather than panic.
func TestResolveEarlyCrashSkips(t *testing.T) {
	q := storeLoop(t)
	m := machineAt(t, q, 1)
	plan := &Plan{
		Crashes: []int64{1},
		Points: []Point{
			{Kind: DropWPQ, Crash: 0, Pick: 5},
			{Kind: ReorderWPQ, Crash: 0, Pick: 5},
		},
	}
	cf, report := Resolve(plan, 0, m, 1)
	for _, inj := range report {
		if !inj.Skipped {
			t.Errorf("%s landed at cycle 1 (journal should be empty): %+v", inj.Kind, inj)
		}
	}
	if len(cf.Drop) != 0 || len(cf.Reorder) != 0 {
		t.Errorf("skipped points still injected faults: %+v", cf)
	}
}
