package simtest

import (
	"bytes"
	"fmt"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// The observed-run arm of the differential harness: with telemetry and
// both tracers attached, the threaded kernel must produce byte-identical
// observations to the reference stepper — the manifest's stats,
// histograms and series shape, the sampled CSV, the Perfetto trace, and
// the textual trace — on clean runs and frozen at crash points.

// observeIntervals are the sample intervals the arm runs: every cycle, a
// prime that lands samples inside superblocks and between the halves of
// fused compare+branch pairs, and the cwspsim default.
var observeIntervals = []int64{1, 7, 4096}

// observeTraceLimit caps the Perfetto trace so longer cells also exercise
// the past-limit path, where only track metadata is still written.
const observeTraceLimit = 2000

// observation is everything an observed run exports, as bytes.
type observation struct {
	Stats, Histograms, Series string
	CSV, Perfetto, Text       string
	// Crash is the frozen state's cycle and NVM digest (crash runs only).
	Crash string
}

// observe runs one cell with telemetry at the given sample interval and
// a WriteTracer plus a Perfetto tracer attached, to completion (crash 0)
// or frozen at the crash cycle, and returns its exports.
func observe(p *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, interval, crash int64) (*observation, error) {
	if crash > 0 {
		cfg.Recoverable = true
	}
	m, err := sim.NewThreaded(p, cfg, sch, specs)
	if err != nil {
		return nil, err
	}
	tel := m.EnableTelemetry(sim.TelemetryOptions{SampleInterval: interval, SampleCap: 512})
	var text, perfetto bytes.Buffer
	pt := sim.NewPerfettoTracer(&perfetto)
	pt.SetLimit(observeTraceLimit)
	m.SetTracer(sim.MultiTracer{&sim.WriteTracer{W: &text}, pt})
	var ob observation
	if crash > 0 {
		cs, err := m.CrashAt(crash)
		if err != nil {
			return nil, err
		}
		ob.Crash = fmt.Sprintf("cycle=%d nvm=%#x", cs.Cycle, cs.NVM.Digest())
	} else if _, err := m.Run(); err != nil {
		return nil, err
	}
	if err := pt.Close(); err != nil {
		return nil, err
	}
	man, err := m.BuildManifest("simtest", "observe", "test")
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := tel.WriteSeriesCSV(&csv); err != nil {
		return nil, err
	}
	ob.Stats = string(man.Stats)
	ob.Histograms = Canon(man.Histograms)
	ob.Series = Canon(man.Series)
	ob.CSV, ob.Perfetto, ob.Text = csv.String(), perfetto.String(), text.String()
	return &ob, nil
}

// observeBoth runs one observed cell on the reference and threaded
// kernels and requires identical exports. A run that fails must fail
// identically on both.
func observeBoth(t *testing.T, label string, p *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, interval, crash int64) {
	t.Helper()
	label = fmt.Sprintf("%s/iv%d", label, interval)
	if crash > 0 {
		label = fmt.Sprintf("%s@%d", label, crash)
	}
	ref, refErr := observe(p, refKernel(cfg), sch, specs, interval, crash)
	got, gotErr := observe(p, withKernel(cfg, sim.KernelThreaded), sch, specs, interval, crash)
	if refErr != nil || gotErr != nil {
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
			t.Errorf("%s: kernels failed differently\n  threaded: %v\n  ref: %v", label, gotErr, refErr)
		}
		return
	}
	for _, f := range []struct{ name, ref, got string }{
		{"manifest stats", ref.Stats, got.Stats},
		{"manifest histograms", ref.Histograms, got.Histograms},
		{"manifest series", ref.Series, got.Series},
		{"series CSV", ref.CSV, got.CSV},
		{"Perfetto trace", ref.Perfetto, got.Perfetto},
		{"text trace", ref.Text, got.Text},
		{"crash state", ref.Crash, got.Crash},
	} {
		if f.ref != f.got {
			t.Errorf("%s: threaded %s diverged from reference\n%s", label, f.name, firstDiff(f.ref, f.got))
		}
	}
}

// TestObservedKernelEquivalence sweeps corpus programs × all schemes ×
// the three sample intervals, single-core and two-core, to completion and
// at three crash points, plus the mt spinlock worker on 2 and 4 cores.
func TestObservedKernelEquivalence(t *testing.T) {
	seeds, mcSeeds := int64(40), int64(12)
	if testing.Short() {
		seeds, mcSeeds = 8, 3
	}
	cases := AllSchemes(TestConfig())
	smp := newSampler()
	for seed := int64(0); seed < seeds; seed++ {
		cp, err := GenProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cases {
			p := cp.ProgramFor(sc.Sch)
			placements := [][]sim.ThreadSpec{{{Fn: p.Entry}}}
			if seed < mcSeeds {
				placements = append(placements, []sim.ThreadSpec{{Fn: p.Entry}, {Fn: p.Entry}})
			}
			for _, specs := range placements {
				if !smp.take() {
					continue
				}
				label := fmt.Sprintf("p%d/%s/x%d", seed, sc.Name, len(specs))
				full, err := Run(p, sc.Cfg, sc.Sch, specs)
				if err != nil {
					t.Fatal(err)
				}
				for _, iv := range observeIntervals {
					observeBoth(t, label, p, sc.Cfg, sc.Sch, specs, iv, 0)
					for _, crash := range crashPoints(full.Stats.Cycles) {
						if crash > 0 {
							observeBoth(t, label, p, sc.Cfg, sc.Sch, specs, iv, crash)
						}
					}
				}
			}
		}
	}

	mt, _, err := compiler.Compile(workloads.BuildMTWorker(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := schemes.ByName("cwsp")
	cfg := schemes.ConfigFor(sch, TestConfig())
	for _, cores := range []int{2, 4} {
		var specs []sim.ThreadSpec
		for i := 0; i < cores; i++ {
			specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(i), 6}})
		}
		for _, iv := range observeIntervals {
			observeBoth(t, fmt.Sprintf("mt/cwsp/x%d", cores), mt, cfg, sch, specs, iv, 0)
		}
	}
}
