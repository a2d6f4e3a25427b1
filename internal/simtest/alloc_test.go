package simtest

import (
	"io"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
)

// steadyBufBase is the fixed 64-word buffer the steady-state loop cycles
// over: a bounded working set, so every pool and table in the machine
// reaches its high-water mark during warmup.
const steadyBufBase = int64(0x2200_0000)

// buildSteadyLoop returns steady(iters): for i < iters { buf[i&63] = i },
// compiled so region boundaries and the persist path are exercised on
// every iteration.
func buildSteadyLoop(t testing.TB) *ir.Program {
	fb := ir.NewFunc("steady", 1)
	iters := fb.Param(0)
	fb.NewBlock("entry")
	i := fb.Reg()
	fb.ConstInto(i, 0)
	head := fb.AddBlock("head")
	body := fb.AddBlock("body")
	exit := fb.AddBlock("exit")
	fb.Jmp(head)
	fb.SetBlock(head)
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.R(iters))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	slot := fb.Bin(ir.OpAnd, ir.R(i), ir.Imm(63))
	off := fb.Bin(ir.OpShl, ir.R(slot), ir.Imm(3))
	addr := fb.Add(ir.Imm(steadyBufBase), ir.R(off))
	fb.Store(ir.R(i), ir.R(addr), 0)
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(i))

	p := ir.NewProgram("steady")
	p.Add(fb.MustDone())
	p.Entry = "steady"
	cp, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// steadyMachine builds a steady-loop machine on the production kernel,
// lets setup attach observers to it, and warms it up; it returns the
// machine with the warmed-up crash target.
func steadyMachine(t *testing.T, setup ...func(*sim.Machine)) (*sim.Machine, int64) {
	sch, ok := schemes.ByName("cwsp")
	if !ok {
		t.Fatal("cwsp scheme missing")
	}
	cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
	p := buildSteadyLoop(t)
	m, err := sim.NewThreaded(p, cfg, sch, []sim.ThreadSpec{{Fn: "steady", Args: []int64{50_000_000}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range setup {
		f(m)
	}
	target := int64(300_000)
	if err := m.RunUntil(target); err != nil {
		t.Fatal(err)
	}
	return m, target
}

// requireSteadyZeroAllocs runs 50 further 2k-cycle windows on a warm
// machine and fails unless they allocate nothing and the machine keeps
// stepping.
func requireSteadyZeroAllocs(t *testing.T, what string, m *sim.Machine, target int64) {
	t.Helper()
	before := m.CollectStats().Instrs
	avg := testing.AllocsPerRun(50, func() {
		target += 2_000
		if err := m.RunUntil(target); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("%s steady-state RunUntil allocated %.1f times per 2k-cycle window, want 0", what, avg)
	}
	if after := m.CollectStats().Instrs; after <= before {
		t.Fatalf("machine stopped stepping during measurement (instrs %d -> %d)", before, after)
	}
}

// TestSteadyStateZeroAllocs pins the production kernel's allocation-free
// steady state: once a machine is warm (pools filled, tables at size, the
// program translated once inside the salt-keyed sync.Once cache),
// continued stepping through loads, stores, region turnover, and the
// persist path must not touch the heap — closures allocate at
// translation time, never at run time.
func TestSteadyStateZeroAllocs(t *testing.T) {
	m, target := steadyMachine(t)
	requireSteadyZeroAllocs(t, "plain", m, target)
}

// TestThreadedSteadyStateZeroAllocs pins the same property with telemetry
// attached: histogram probes, the sampler folded into the threaded
// kernel's stop cycle, and gauge snapshots into the preallocated ring
// (sampling every 64 cycles, so the ring wraps during the measurement)
// must not allocate either.
func TestThreadedSteadyStateZeroAllocs(t *testing.T) {
	m, target := steadyMachine(t, func(m *sim.Machine) {
		m.EnableTelemetry(sim.TelemetryOptions{SampleInterval: 64, SampleCap: 128})
	})
	if m.Telemetry().Sampler.Dropped() == 0 {
		t.Fatal("sampler ring never wrapped during warmup")
	}
	requireSteadyZeroAllocs(t, "telemetry", m, target)
}

// TestPerfettoPastLimitZeroAllocs: a Perfetto tracer that has reached its
// event limit drops every further event before building its name or
// args, so a machine tracing into one (with telemetry on) stays
// allocation-free per event in the steady state.
func TestPerfettoPastLimitZeroAllocs(t *testing.T) {
	var pt *sim.PerfettoTracer
	m, target := steadyMachine(t, func(m *sim.Machine) {
		m.EnableTelemetry(sim.TelemetryOptions{})
		pt = sim.NewPerfettoTracer(io.Discard)
		pt.SetLimit(1000)
		m.SetTracer(pt)
	})
	if pt.Events() != 1000 {
		t.Fatalf("tracer emitted %d events during warmup, want the 1000-event limit", pt.Events())
	}
	requireSteadyZeroAllocs(t, "perfetto past limit", m, target)
	if err := pt.Close(); err != nil {
		t.Fatal(err)
	}
}
