package litmus

import (
	"fmt"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
)

// TrackBase is the base address of the tracked litmus words. The window
// 0x3000_0000.. sits between the MT workload heap and the stacks — no
// workload, checkpoint area, or emit buffer overlaps it.
const TrackBase int64 = 0x3000_0000

// TrackAddr returns tracked word k's NVM address. Words are 4 KiB apart:
// distinct cache lines (so Capri's line dedup only triggers on repeated
// stores to the same k) and alternating memory controllers (mcOf is
// (addr>>12)%NumMCs, so word k lives on MC k%NumMCs).
func TrackAddr(k int) int64 { return TrackBase + int64(k)*0x1000 }

// helperName is the empty callee EvCall invokes: a plain region boundary
// (the compiler brackets every call with boundaries) with no
// synchronization semantics.
const helperName = "h"

// threadName returns core t's litmus function name. t0 is the entry.
func threadName(t int) string { return fmt.Sprintf("t%d", t) }

// BuildProgram lowers the spec's threads to a raw IR program: one
// straight-line function per core plus the empty helper. The raw program is
// what base/psp-ideal execute; persist schemes run it through Compile
// first, which forms regions, inserts checkpoints, and brackets calls with
// OpBoundary — the region structure the outcome derivation reads back from
// the compiled IR.
func BuildProgram(s *Spec) *ir.Program {
	p := ir.NewProgram("litmus")
	for ti, th := range s.Threads {
		fb := ir.NewFunc(threadName(ti), 0)
		fb.NewBlock("entry")
		for _, ev := range th {
			switch ev.Kind {
			case EvStore:
				addr := fb.Const(TrackAddr(ev.K))
				fb.Store(ir.Imm(ev.V), ir.R(addr), 0)
			case EvAtomic:
				addr := fb.Const(TrackAddr(ev.K))
				fb.AtomicXchg(ir.R(addr), 0, ir.Imm(ev.V))
			case EvFence:
				fb.Fence()
			case EvCall:
				fb.Call(helperName)
			}
		}
		fb.Ret(ir.Imm(0))
		p.Add(fb.MustDone())
	}
	hb := ir.NewFunc(helperName, 0)
	hb.NewBlock("entry")
	hb.Ret(ir.Imm(0))
	p.Add(hb.MustDone())
	p.Entry = threadName(0)
	return p
}

// ThreadSpecs places one thread per litmus core.
func ThreadSpecs(s *Spec) []sim.ThreadSpec {
	specs := make([]sim.ThreadSpec, len(s.Threads))
	for ti := range s.Threads {
		specs[ti] = sim.ThreadSpec{Fn: threadName(ti)}
	}
	return specs
}

// Prepared is a spec lowered to the form both the executor and the model
// derivation consume: the (possibly compiled) program, thread placements,
// and the resolved scheme/config.
type Prepared struct {
	Spec  *Spec
	Prog  *ir.Program
	Specs []sim.ThreadSpec
	Sch   sim.Scheme
	Cfg   sim.Config
}

// Prepare resolves the spec's scheme and kernel, builds the program, and
// compiles it when the scheme executes compiled code. The returned
// Prepared is read-only and safe to share across a golden run and crash
// runs.
func Prepare(s *Spec) (*Prepared, error) {
	sch, ok := schemes.ByName(s.Scheme)
	if !ok {
		return nil, fmt.Errorf("litmus: unknown scheme %q", s.Scheme)
	}
	cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
	cfg.Recoverable = true
	if s.Kernel == KernelRef {
		cfg.Kernel = sim.KernelReference
	}

	prog := BuildProgram(s)
	if schemes.NeedsCompiledProgram(sch) {
		compiled, _, err := compiler.Compile(prog, compiler.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("litmus: compile: %w", err)
		}
		prog = compiled
	}
	return &Prepared{Spec: s, Prog: prog, Specs: ThreadSpecs(s), Sch: sch, Cfg: cfg}, nil
}

// InitTracked seeds every tracked word to zero in both architectural
// memory and NVM, so "initial value" is a well-defined outcome component.
func InitTracked(m *sim.Machine) {
	for k := 0; k < NumTracked; k++ {
		m.InitWord(TrackAddr(k), 0)
	}
}
