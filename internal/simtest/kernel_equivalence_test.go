package simtest

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// The differential harness: every test in this file runs the same
// program on every kernel under test and requires the canonical records
// (stats, return values, output, memory and NVM digests, crash states,
// recovery outcomes) to be byte-identical to the reference stepper's.
// The reference kernel is the pinned truth and the only comparison
// oracle; testKernels lists the kernels measured against it — a future
// kernel joins the whole suite by adding one element.

// corpusSeeds is the number of progen programs the full-run equivalence
// sweep covers (ISSUE 5 acceptance floor: 200).
const corpusSeeds = 200

// testKernels are the kernels the harness proves against the reference
// stepper: the threaded production kernel.
var testKernels = []sim.KernelKind{sim.KernelThreaded}

func refKernel(cfg sim.Config) sim.Config {
	cfg.Kernel = sim.KernelReference
	return cfg
}

func withKernel(cfg sim.Config, k sim.KernelKind) sim.Config {
	cfg.Kernel = k
	return cfg
}

// sampleEvery reads the CWSP_EQ_SAMPLE thinning factor: the sampled
// simulation tier. CI's expensive configurations (-race -count=2) set it
// to run a deterministic 1-in-k sample of the full seed × scheme × crash
// cell grid; unset or <=1 runs every cell. Sampling is positional — cell
// i runs iff i % k == 0 — so two invocations sample identical cells.
func sampleEvery() int {
	v := os.Getenv("CWSP_EQ_SAMPLE")
	if v == "" {
		return 1
	}
	k, err := strconv.Atoi(v)
	if err != nil || k < 1 {
		return 1
	}
	return k
}

// sampler deterministically thins a sweep's cell grid.
type sampler struct{ every, n int }

func newSampler() *sampler { return &sampler{every: sampleEvery()} }

// take reports whether the next cell is in the sample.
func (s *sampler) take() bool {
	i := s.n
	s.n++
	return s.every <= 1 || i%s.every == 0
}

// requireEqual compares one kernel's canonical JSON against the
// reference record.
func requireEqual(t *testing.T, label string, kernel sim.KernelKind, got, ref interface{}) {
	t.Helper()
	gj, rj := Canon(got), Canon(ref)
	if gj != rj {
		t.Errorf("%s: %s kernel diverged from reference\n%s", label, kernel, firstDiff(rj, gj))
	}
}

// runAll runs one cell on the reference kernel and on every kernel under
// test, requiring identical records.
func runAll(t *testing.T, label string, p *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec) *RunRecord {
	t.Helper()
	ref, err := Run(p, refKernel(cfg), sch, specs)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for _, k := range testKernels {
		got, err := Run(p, withKernel(cfg, k), sch, specs)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, k, err)
		}
		requireEqual(t, label, k, got, ref)
	}
	return ref
}

// crashPoints returns the ≥3 mid-run crash cycles the harness probes:
// quarter, half, and three-quarter points of the golden run.
func crashPoints(goldenCycles int64) []int64 {
	return []int64{goldenCycles / 4, goldenCycles / 2, 3 * goldenCycles / 4}
}

// crashAll crashes one cell at the given cycle on every kernel (resuming
// when the scheme supports it) and requires crash records identical to
// the reference kernel's. A resume that fails (some crash points land
// where the frame-record walk cannot reconstruct a core — a pre-existing
// recovery limitation) must fail identically on every kernel.
func crashAll(t *testing.T, label string, cp *Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, crash int64) {
	t.Helper()
	p := cp.ProgramFor(sch)
	resume := schemes.NeedsCompiledProgram(sch)
	one := func(c sim.Config) (*CrashRecord, error) {
		if resume {
			return CrashRecover(p, c, sch, specs, crash)
		}
		rec, _, err := Crash(p, c, sch, specs, crash)
		return rec, err
	}
	ref, refErr := one(refKernel(cfg))
	lab := fmt.Sprintf("%s@%d", label, crash)
	for _, k := range testKernels {
		got, gotErr := one(withKernel(cfg, k))
		switch {
		case gotErr == nil && refErr == nil:
			requireEqual(t, lab, k, got, ref)
		case gotErr != nil && refErr != nil:
			if gotErr.Error() != refErr.Error() {
				t.Errorf("%s: %s kernel failed differently from reference\n  %s: %v\n  ref: %v",
					lab, k, k, gotErr, refErr)
			}
		default:
			t.Errorf("%s: only one kernel failed\n  %s: %v\n  ref: %v", lab, k, gotErr, refErr)
		}
	}
}

// TestKernelEquivalence is the headline sweep: corpusSeeds progen
// programs × all 11 schemes, full-run records byte-identical across
// kernels.
func TestKernelEquivalence(t *testing.T) {
	seeds := int64(corpusSeeds)
	if testing.Short() {
		seeds = 25
	}
	cases := AllSchemes(TestConfig())
	smp := newSampler()
	for seed := int64(0); seed < seeds; seed++ {
		cp, err := GenProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cases {
			if !smp.take() {
				continue
			}
			p := cp.ProgramFor(sc.Sch)
			label := fmt.Sprintf("p%d/%s", seed, sc.Name)
			runAll(t, label, p, sc.Cfg, sc.Sch, []sim.ThreadSpec{{Fn: p.Entry}})
		}
	}
}

// TestKernelEquivalenceCrash sweeps the same corpus through mid-run
// crashes: every scheme, three crash points per run, crash states (and,
// for resumable schemes, recovery outcomes) byte-identical.
func TestKernelEquivalenceCrash(t *testing.T) {
	seeds := int64(corpusSeeds)
	if testing.Short() {
		seeds = 10
	}
	cases := AllSchemes(TestConfig())
	smp := newSampler()
	for seed := int64(0); seed < seeds; seed++ {
		cp, err := GenProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cases {
			if !smp.take() {
				continue
			}
			p := cp.ProgramFor(sc.Sch)
			specs := []sim.ThreadSpec{{Fn: p.Entry}}
			cfg := sc.Cfg
			cfg.Recoverable = true
			full, err := Run(p, cfg, sc.Sch, specs)
			if err != nil {
				t.Fatal(err)
			}
			for _, crash := range crashPoints(full.Stats.Cycles) {
				if crash == 0 {
					continue
				}
				crashAll(t, fmt.Sprintf("p%d/%s", seed, sc.Name), cp, sc.Cfg, sc.Sch, specs, crash)
			}
		}
	}
}

// TestKernelEquivalenceMultiCore exercises the batched scheduler's
// tie-breaking: progen programs placed on two cores, and the mt spinlock
// worker on 2 and 4 cores, across all schemes.
func TestKernelEquivalenceMultiCore(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	cases := AllSchemes(TestConfig())
	smp := newSampler()
	for seed := int64(0); seed < seeds; seed++ {
		cp, err := GenProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cases {
			if !smp.take() {
				continue
			}
			p := cp.ProgramFor(sc.Sch)
			specs := []sim.ThreadSpec{{Fn: p.Entry}, {Fn: p.Entry}}
			runAll(t, fmt.Sprintf("p%d/%s/x2", seed, sc.Name), p, sc.Cfg, sc.Sch, specs)
		}
	}

	mt, _, err := compiler.Compile(workloads.BuildMTWorker(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{2, 4} {
		var specs []sim.ThreadSpec
		for i := 0; i < cores; i++ {
			specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(i), 6}})
		}
		for _, sc := range cases {
			runAll(t, fmt.Sprintf("mt/%s/x%d", sc.Name, cores), mt, sc.Cfg, sc.Sch, specs)
		}
	}
}

// TestKernelEquivalenceMultiCoreCrash crashes two-core placements at
// three points under the full cWSP scheme and requires identical crash
// states and recovery outcomes.
func TestKernelEquivalenceMultiCoreCrash(t *testing.T) {
	seeds := int64(15)
	if testing.Short() {
		seeds = 4
	}
	sch, _ := schemes.ByName("cwsp")
	cfg := schemes.ConfigFor(sch, TestConfig())
	smp := newSampler()
	for seed := int64(0); seed < seeds; seed++ {
		cp, err := GenProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !smp.take() {
			continue
		}
		p := cp.Compiled
		specs := []sim.ThreadSpec{{Fn: p.Entry}, {Fn: p.Entry}}
		rcfg := cfg
		rcfg.Recoverable = true
		full, err := Run(p, rcfg, sch, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, crash := range crashPoints(full.Stats.Cycles) {
			if crash == 0 {
				continue
			}
			crashAll(t, fmt.Sprintf("p%d/cwsp/x2", seed), cp, cfg, sch, specs, crash)
		}
	}
}

// TestKernelEquivalenceWorkloads runs real workloads (smoke scale)
// through every kernel across the golden scheme set — a denser program
// mix than progen reaches.
func TestKernelEquivalenceWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, wn := range goldenWorkloads {
		raw, compiled := buildWorkload(t, wn)
		for _, sn := range goldenSchemes {
			sch, _ := schemes.ByName(sn)
			p := raw
			if schemes.NeedsCompiledProgram(sch) {
				p = compiled
			}
			cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
			runAll(t, wn+"/"+sn, p, cfg, sch, []sim.ThreadSpec{{Fn: p.Entry}})
		}
	}
}
