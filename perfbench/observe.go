package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// observeSchemes are the schemes observed cells run under; their stats are
// the sweep's pinned cells of the same name.
var observeSchemes = []string{"base", "cwsp"}

// observeRoundSeconds is the host time of one observe round on the
// reference host; -seconds sizes the op list with it.
const observeRoundSeconds = 3.8

// perfettoEvery: one op in this many also attaches a PerfettoTracer.
const perfettoEvery = 4

// observeTraceLimit caps Perfetto events per op, as cwspsim's -trace-limit.
const observeTraceLimit = 100000

// ObserveOp is one cwspsim -metrics-out/-timeseries equivalent.
type ObserveOp struct {
	Cell     SweepCell
	Perfetto bool
}

// ObserveOps is the op list: per round every app once, rotated by a
// seeded offset, under a scheme that alternates by app and round, so two
// rounds cover every app under both schemes. A rotating quarter of each
// round's ops also attach a PerfettoTracer.
func ObserveOps(seed int64, seconds int) []ObserveOp {
	apps := workloads.All()
	var out []ObserveOp
	for r := 0; r < rounds(seconds, observeRoundSeconds, len(apps)); r++ {
		for _, i := range rotation(seed, "observe", r, len(apps)) {
			out = append(out, ObserveOp{
				Cell:     SweepCell{App: apps[i].Name, Scheme: observeSchemes[(i+r)%len(observeSchemes)]},
				Perfetto: (i/len(observeSchemes)+r)%perfettoEvery == 0,
			})
		}
	}
	return out
}

// runObserve: one cell at a time with telemetry on, then its manifest and
// time series encoded as cwspsim writes them.
func runObserve(env *Env, res *Result) error {
	ops := ObserveOps(env.Seed, env.Seconds)
	var cells []SweepCell
	for _, op := range ops {
		cells = append(cells, op.Cell)
	}
	t := env.Trace
	timed := func(ps *sweepProgs) error {
		for i, op := range ops {
			t0 := time.Now()
			st, err := observeOp(t, ps, op, i)
			res.LatMS = append(res.LatMS, float64(time.Since(t0))/float64(time.Millisecond))
			res.Attempted++
			if err == nil {
				err = env.Pinned.checkStats(env.Pin, env.Pinned.Sweep, op.Cell.Name(), st)
			}
			if err != nil {
				res.fail("observe op %d: %v", i, err)
			}
		}
		return nil
	}
	if err := measure(env, res, cheapSetupReps,
		func() (*sweepProgs, error) { return buildPrograms(t, cells) },
		func(*sweepProgs) {}, timed); err != nil {
		return err
	}
	if t != nil {
		return observeSlowdown(t, ops)
	}
	return nil
}

// newObserveMachine is a fresh machine for the cell, on the program its
// scheme executes.
func newObserveMachine(ps *sweepProgs, c SweepCell) (*sim.Machine, error) {
	sch, ok := schemes.ByName(c.Scheme)
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q", c.Scheme)
	}
	prog := ps.orig[c.App]
	if schemes.NeedsCompiledProgram(sch) {
		prog = ps.compiled[c.App]
	}
	return sim.New(prog, schemes.ConfigFor(sch, sim.DefaultConfig()), sch)
}

// observeOp runs one op and returns the stats its manifest carries.
func observeOp(t *Tracer, ps *sweepProgs, op ObserveOp, id int) (sim.Stats, error) {
	c := op.Cell
	sp := t.Begin("sim.new", -1, id)
	m, err := newObserveMachine(ps, c)
	t.End(sp)
	if err != nil {
		return sim.Stats{}, err
	}
	m.EnableTelemetry(sim.TelemetryOptions{SampleInterval: 4096})
	var pt *sim.PerfettoTracer
	var traceBytes countingWriter
	// Perfetto ops get a span of their own, so telemetry.slowdown compares
	// telemetry alone with the plain run.
	runSpan := "telemetry.run"
	if op.Perfetto {
		pt = sim.NewPerfettoTracer(&traceBytes)
		pt.SetLimit(observeTraceLimit)
		m.SetTracer(pt)
		runSpan = "telemetry.run_perfetto"
	}
	sp = t.Begin(runSpan, -1, id)
	_, err = m.Run()
	if err == nil && pt != nil {
		err = pt.Close()
	}
	t.End(sp)
	if err != nil {
		return sim.Stats{}, err
	}
	sp = t.Begin("telemetry.manifest", -1, id)
	var buf bytes.Buffer
	man, err := m.BuildManifest("perfbench", c.App, "quick")
	if err == nil {
		err = man.Write(&buf)
	}
	if err == nil {
		err = m.Telemetry().WriteSeriesCSV(&buf)
	}
	t.End(sp)
	if err != nil {
		return sim.Stats{}, err
	}
	t.Add("telemetry.manifest_bytes", float64(buf.Len()+int(traceBytes)))
	var st sim.Stats
	if err := json.Unmarshal(man.Stats, &st); err != nil {
		return sim.Stats{}, fmt.Errorf("manifest stats: %w", err)
	}
	addSimCounts(t, c.Scheme, st)
	return st, nil
}

// observeSlowdown is the denominator of telemetry.slowdown: after the
// timed phase, in the traced run only, every op without a Perfetto tracer
// is run again without telemetry, and its Run is timed as the op's
// telemetry.run span was. The sum and the sample count become counts.
func observeSlowdown(t *Tracer, ops []ObserveOp) error {
	var cells []SweepCell
	for _, op := range ops {
		if !op.Perfetto {
			cells = append(cells, op.Cell)
		}
	}
	ps, err := buildPrograms(nil, cells)
	if err != nil {
		return err
	}
	var total time.Duration
	for _, c := range cells {
		m, err := newObserveMachine(ps, c)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = m.Run()
		total += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name(), err)
		}
	}
	t.Add("telemetry.plain_ms", float64(total)/float64(time.Millisecond))
	t.Add("telemetry.slowdown_samples", float64(len(cells)))
	return nil
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
