// Package simtest is the differential proving ground for the simulation
// kernel: it runs programs to completion (and through crash/recovery
// cycles) on a sim.Machine and reduces every observable outcome — stats,
// return values, emitted output, the architectural and persisted memory
// images, crash states, and recovery results — to canonical records that
// can be compared byte for byte.
//
// Two consumers build on these records: the golden snapshot tests, which
// freeze canonical workloads' behavior in testdata/golden so any kernel
// change diffs against known-good outputs, and the kernel-equivalence
// harness, which runs the threaded and reference kernels over generated
// programs and requires identical records (see kernel_equivalence_test.go,
// observe_equivalence_test.go, and the fuzz targets).
package simtest

import (
	"encoding/json"
	"fmt"
	"sort"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/progen"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
)

// RunRecord is the canonical observable outcome of one completed run.
// Memory images are folded to content digests (mem.PagedMem.Digest), so a
// record compares equal exactly when the full images compare Equal.
type RunRecord struct {
	Stats     sim.Stats
	Ret       []int64
	Output    []int64
	NVMDigest uint64
	MemDigest uint64
}

// SealEntry is one checkpoint-area seal, addr-sorted in CrashRecord.
type SealEntry struct {
	Addr int64
	Seal uint64
}

// CrashRecord is the canonical outcome of one crash at a fixed cycle plus
// the recovery that follows it.
type CrashRecord struct {
	Cycle     int64
	NVMDigest uint64
	Restarts  []sim.Restart
	Seals     []SealEntry
	// Recovered is the resumed machine's run-to-completion record.
	Recovered *RunRecord
}

// Record reduces a completed run's result to its canonical record.
func Record(res *sim.Result) *RunRecord {
	return &RunRecord{
		Stats:     res.Stats,
		Ret:       res.Ret,
		Output:    res.Output,
		NVMDigest: res.NVM.Digest(),
		MemDigest: res.Mem.Digest(),
	}
}

// Run executes the program to completion and returns its record.
func Run(p *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec) (*RunRecord, error) {
	m, err := sim.NewThreaded(p, cfg, sch, specs)
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	return Record(res), nil
}

// Crash crashes the program at the given cycle and records the resulting
// crash state (no recovery). cfg.Recoverable is forced on.
func Crash(p *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, crash int64) (*CrashRecord, *sim.CrashState, error) {
	cfg.Recoverable = true
	m, err := sim.NewThreaded(p, cfg, sch, specs)
	if err != nil {
		return nil, nil, err
	}
	cs, err := m.CrashAt(crash)
	if err != nil {
		return nil, nil, err
	}
	rec := &CrashRecord{
		Cycle:     cs.Cycle,
		NVMDigest: cs.NVM.Digest(),
		Restarts:  cs.Restarts,
	}
	for addr, seal := range cs.Seals {
		rec.Seals = append(rec.Seals, SealEntry{Addr: addr, Seal: seal})
	}
	sort.Slice(rec.Seals, func(i, j int) bool { return rec.Seals[i].Addr < rec.Seals[j].Addr })
	return rec, cs, nil
}

// CrashRecover crashes the program at the given cycle, records the crash
// state, then resumes from it and runs to completion. cfg.Recoverable is
// forced on.
func CrashRecover(p *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, crash int64) (*CrashRecord, error) {
	cfg.Recoverable = true
	rec, cs, err := Crash(p, cfg, sch, specs, crash)
	if err != nil {
		return nil, err
	}
	resumed, err := sim.NewResumed(p, cfg, sch, specs, cs)
	if err != nil {
		return nil, err
	}
	res, err := resumed.Run()
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}
	rec.Recovered = Record(res)
	return rec, nil
}

// Canon renders a record as stable, indented JSON — the byte form the
// golden files store and the equivalence harness compares.
func Canon(v interface{}) string {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("simtest: canon: %v", err))
	}
	return string(b) + "\n"
}

// Program is one corpus entry: a generated program in both the original
// and compiled (regions + pruned checkpoints) forms.
type Program struct {
	Seed     int64
	Raw      *ir.Program
	Compiled *ir.Program
}

// ProgramFor returns the program variant a scheme executes.
func (p *Program) ProgramFor(sch sim.Scheme) *ir.Program {
	if schemes.NeedsCompiledProgram(sch) {
		return p.Compiled
	}
	return p.Raw
}

// GenProgram generates corpus program #seed. The progen shape is varied
// with the seed so the corpus covers calls, atomics, emits, loop nests,
// and pure straight-line arithmetic.
func GenProgram(seed int64) (*Program, error) {
	cfg := progen.Config{
		MaxFuncs:     int(seed % 3),
		MaxStmts:     10 + int(seed%7),
		MaxLoopDepth: 1 + int(seed%2),
		MaxLoopTrip:  3 + seed%3,
		Arrays:       1 + int(seed%3),
		ArrayWords:   8 + 8*(seed%2),
		Atomics:      seed%2 == 0,
		Emits:        seed%3 != 2,
	}
	raw := progen.Generate(seed, cfg)
	compiled, _, err := compiler.Compile(raw, compiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("seed %d: compile: %w", seed, err)
	}
	return &Program{Seed: seed, Raw: raw, Compiled: compiled}, nil
}

// AllSchemes returns every registered scheme with its adjusted config, in
// a fixed order.
func AllSchemes(base sim.Config) []SchemeCase {
	names := []string{
		"base", "cwsp", "region-formation", "persist-path", "mc-spec",
		"wb-delay", "wpq-delay", "capri", "ido", "replaycache", "psp-ideal",
	}
	out := make([]SchemeCase, 0, len(names))
	for _, n := range names {
		sch, ok := schemes.ByName(n)
		if !ok {
			panic("simtest: unknown scheme " + n)
		}
		out = append(out, SchemeCase{Name: n, Sch: sch, Cfg: schemes.ConfigFor(sch, base)})
	}
	return out
}

// SchemeCase is one scheme with its structural config overrides applied.
type SchemeCase struct {
	Name string
	Sch  sim.Scheme
	Cfg  sim.Config
}

// TestConfig is the downsized machine the equivalence corpus runs on: the
// default hierarchy with small persist structures, so tiny generated
// programs still exercise PB/WPQ/RBT back-pressure, WB delaying, and
// multi-MC interleaving.
func TestConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.L1DBytes = 4 << 10
	cfg.L2Bytes = 64 << 10
	cfg.DRAMBytes = 256 << 10
	cfg.PBSize = 6
	cfg.WPQSize = 4
	cfg.RBTSize = 3
	cfg.WBSize = 4
	return cfg
}
