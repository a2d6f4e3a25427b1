package simtest

import (
	"fmt"
	"testing"

	"cwsp/internal/sim"
)

// FuzzKernelEquivalence feeds arbitrary progen seeds, scheme picks, and
// crash fractions to the threaded kernel and requires byte-identical
// full-run results and crash/recovery outcomes to the reference stepper.
// It is the open-ended arm of the differential harness:
// TestKernelEquivalence sweeps a fixed corpus, the fuzzer walks whatever
// the mutator finds.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2))
	f.Add(int64(7), uint8(3), uint8(1))
	f.Add(int64(42), uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, schemePick, crashPick uint8) {
		fuzzOneCell(t, seed, schemePick, crashPick, 0)
	})
}

// FuzzThreadedEquivalence is the observed arm: the same cell
// construction, plus a fuzzer-chosen telemetry sample interval with both
// tracers attached, so fuzz time also probes where samples fall relative
// to superblocks and fused compare+branch pairs.
func FuzzThreadedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint16(0))
	f.Add(int64(7), uint8(3), uint8(1), uint16(6))
	f.Add(int64(42), uint8(10), uint8(3), uint16(4095))
	f.Add(int64(9091), uint8(5), uint8(0), uint16(12))
	f.Fuzz(func(t *testing.T, seed int64, schemePick, crashPick uint8, interval uint16) {
		fuzzOneCell(t, seed, schemePick, crashPick, int64(interval)+1)
	})
}

// fuzzOneCell runs one fuzzer-chosen (seed, scheme, crash point) cell on
// the threaded kernel against the reference stepper; a positive sample
// interval also compares the observed runs (telemetry and tracers).
func fuzzOneCell(t *testing.T, seed int64, schemePick, crashPick uint8, interval int64) {
	if seed < 0 {
		seed = -seed
	}
	seed %= 1 << 20 // keep generated programs small
	cp, err := GenProgram(seed)
	if err != nil {
		t.Skip(err) // a seed the generator rejects is not a kernel bug
	}
	all := AllSchemes(TestConfig())
	sc := all[int(schemePick)%len(all)]
	p := cp.ProgramFor(sc.Sch)
	specs := []sim.ThreadSpec{{Fn: p.Entry}}

	label := fmt.Sprintf("fuzz p%d/%s", seed, sc.Name)
	full := runAll(t, label, p, sc.Cfg, sc.Sch, specs)

	// One mid-run crash point chosen by the fuzzer: frozen machine
	// state (and recovery, when the scheme resumes) must match too.
	frac := int64(crashPick%3) + 1
	crash := full.Stats.Cycles * frac / 4
	if crash > 0 {
		crashAll(t, label, cp, sc.Cfg, sc.Sch, specs, crash)
	}
	if interval > 0 {
		observeBoth(t, label, p, sc.Cfg, sc.Sch, specs, interval, 0)
		if crash > 0 {
			observeBoth(t, label, p, sc.Cfg, sc.Sch, specs, interval, crash)
		}
	}
}
