package benchfmt

import (
	"fmt"
	"io"
)

// CompareOptions tune the regression gate.
type CompareOptions struct {
	// Tol is the fractional regression tolerance for enforced performance
	// metrics (default 0.15: fail on >15% regression).
	Tol float64
	// Strict enforces wall-clock metrics even across differing host
	// fingerprints (off by default: a baseline recorded on one machine is
	// only advisory on another).
	Strict bool
	// MinLatencyUS is the absolute noise floor for latency gates: a
	// quantile must regress by both Tol *and* this many microseconds to
	// fail (default 2000). Smoke sweeps run millisecond-scale cells whose
	// scheduler jitter alone can exceed a pure ratio gate.
	MinLatencyUS float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.Tol <= 0 {
		o.Tol = 0.15
	}
	if o.MinLatencyUS <= 0 {
		o.MinLatencyUS = 2000
	}
	return o
}

// Delta is one compared metric.
type Delta struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Ratio is New/Old oriented so that > 1 means worse (latency grew or
	// throughput shrank); 0 when Old is 0.
	Ratio float64 `json:"ratio"`
	// Enforced deltas can fail the comparison; advisory ones only report.
	Enforced  bool   `json:"enforced"`
	Regressed bool   `json:"regressed"`
	Note      string `json:"note,omitempty"`
}

// Comparison is the outcome of one baseline-vs-current check.
type Comparison struct {
	Baseline string  `json:"baseline"`
	Current  string  `json:"current"`
	Tol      float64 `json:"tol"`
	// HostsMatch records whether wall-clock gates were enforceable.
	HostsMatch bool    `json:"hosts_match"`
	Deltas     []Delta `json:"deltas"`
}

// Failed reports whether any enforced metric regressed.
func (c *Comparison) Failed() bool {
	for _, d := range c.Deltas {
		if d.Enforced && d.Regressed {
			return true
		}
	}
	return false
}

// Write renders the comparison as a human-readable table.
func (c *Comparison) Write(w io.Writer) {
	fmt.Fprintf(w, "bench-check: %s vs baseline %s (tol %.0f%%, hosts match: %v)\n",
		c.Current, c.Baseline, c.Tol*100, c.HostsMatch)
	for _, d := range c.Deltas {
		status := "ok"
		switch {
		case d.Regressed && d.Enforced:
			status = "REGRESSED"
		case d.Regressed:
			status = "regressed (advisory)"
		case !d.Enforced:
			status = "advisory"
		}
		note := d.Note
		if note != "" {
			note = " — " + note
		}
		fmt.Fprintf(w, "  %-22s %12.2f -> %-12.2f x%-6.3f %s%s\n",
			d.Metric, d.Old, d.New, d.Ratio, status, note)
	}
}

// Compare gates cur against base. The structural metrics (cell counts:
// the sweep must still be the same sweep) are always enforced; latency
// quantiles are enforced when both records executed cells and the host
// fingerprints match (or Strict); pure wall-clock metrics (wall_ms,
// cells/sec) are advisory unless Strict, since they fold in scheduler and
// I/O noise that the per-cell latency median does not.
func Compare(base, cur *Record, opt CompareOptions) (*Comparison, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := cur.Validate(); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	if base.Name != cur.Name {
		return nil, fmt.Errorf("benchfmt: comparing different trajectories: %q vs %q", base.Name, cur.Name)
	}
	opt = opt.withDefaults()
	c := &Comparison{Baseline: base.Name, Current: cur.Name, Tol: opt.Tol,
		HostsMatch: base.Host.Equal(cur.Host)}
	timed := opt.Strict || c.HostsMatch
	ran := base.Executed > 0 && cur.Executed > 0

	// Structure: the tracked sweep must not silently shrink or grow.
	cells := Delta{Metric: "cells", Old: float64(base.Cells), New: float64(cur.Cells), Enforced: true}
	if base.Cells > 0 {
		cells.Ratio = float64(cur.Cells) / float64(base.Cells)
	}
	cells.Regressed = base.Cells != cur.Cells
	if cells.Regressed {
		cells.Note = "cell count changed; refresh the baseline (make bench-baseline)"
	}
	c.Deltas = append(c.Deltas, cells)

	if base.Salt != cur.Salt {
		c.Deltas = append(c.Deltas, Delta{
			Metric: "salt", Enforced: false, Regressed: true,
			Note: fmt.Sprintf("code-version salt changed (%s -> %s): cache populations are incomparable", base.Salt, cur.Salt),
		})
	}

	// Latency quantiles: robust to load, enforced with a noise floor.
	lat := func(metric string, old, new float64, enforced bool, floorMul float64) {
		d := Delta{Metric: metric, Old: old, New: new, Enforced: enforced}
		if old > 0 {
			d.Ratio = new / old
		}
		d.Regressed = old > 0 && new > old*(1+opt.Tol) && new-old > opt.MinLatencyUS*floorMul
		if !ran {
			d.Enforced = false
			d.Note = "sweep fully cached; no executed-cell latencies"
		}
		c.Deltas = append(c.Deltas, d)
	}
	lat("cell_latency_us.p50", base.CellLatencyUS.P50, cur.CellLatencyUS.P50, timed, 1)
	lat("cell_latency_us.p95", base.CellLatencyUS.P95, cur.CellLatencyUS.P95, timed, 2.5)
	lat("cell_latency_us.p99", base.CellLatencyUS.P99, cur.CellLatencyUS.P99, false, 1)

	if base.PersistLatCycles != nil && cur.PersistLatCycles != nil {
		// Simulated cycles are deterministic: no noise floor needed.
		p := func(metric string, old, new float64) {
			d := Delta{Metric: metric, Old: old, New: new, Enforced: true}
			if old > 0 {
				d.Ratio = new / old
			}
			d.Regressed = old > 0 && new > old*(1+opt.Tol)
			c.Deltas = append(c.Deltas, d)
		}
		p("persist_lat_cycles.p50", base.PersistLatCycles.P50, cur.PersistLatCycles.P50)
		p("persist_lat_cycles.p95", base.PersistLatCycles.P95, cur.PersistLatCycles.P95)
		p("persist_lat_cycles.p99", base.PersistLatCycles.P99, cur.PersistLatCycles.P99)
	}

	// Wall-clock: advisory unless Strict (noise-dominated in CI).
	wall := Delta{Metric: "wall_ms", Old: float64(base.WallMS), New: float64(cur.WallMS), Enforced: opt.Strict}
	if base.WallMS > 0 {
		wall.Ratio = float64(cur.WallMS) / float64(base.WallMS)
	}
	wall.Regressed = ran && base.WallMS > 0 && float64(cur.WallMS) > float64(base.WallMS)*(1+opt.Tol)
	c.Deltas = append(c.Deltas, wall)

	cps := Delta{Metric: "cells_per_sec", Old: base.CellsPerSec, New: cur.CellsPerSec, Enforced: opt.Strict}
	if cur.CellsPerSec > 0 {
		cps.Ratio = base.CellsPerSec / cur.CellsPerSec // >1 = slower now
	}
	cps.Regressed = ran && base.CellsPerSec > 0 && cur.CellsPerSec < base.CellsPerSec/(1+opt.Tol)
	c.Deltas = append(c.Deltas, cps)

	allocs := Delta{Metric: "allocs", Old: float64(base.Allocs), New: float64(cur.Allocs), Enforced: false}
	if base.Allocs > 0 {
		allocs.Ratio = float64(cur.Allocs) / float64(base.Allocs)
	}
	allocs.Regressed = ran && base.Allocs > 0 && float64(cur.Allocs) > float64(base.Allocs)*(1+opt.Tol)
	c.Deltas = append(c.Deltas, allocs)

	compareService(c, base.Service, cur.Service, opt)
	compareKernel(c, base.Kernel, cur.Kernel, opt, timed)

	return c, nil
}

// KernelDispatchFloor is the minimum threaded/reference speedup the
// dispatch-bound kernel cell must sustain. It is an absolute floor: the
// threaded kernel's reason to exist is removing dispatch overhead, and
// the ratio is taken within one run, so host speed divides out. Its value
// keeps the strength of the gate it replaces (threaded >= 2x the deleted
// batched kernel): 2 x the batched/reference ratio of 6.7 that kernel
// measured on the compute cell (2-vCPU Xeon @ 2.1 GHz, go1.24; best-of-3
// batches, median of three runs 6.67/6.71/7.09).
const KernelDispatchFloor = 13.4

// KernelTelemetryCeiling is the enforced bound on a telemetry-enabled
// threaded run's wall time relative to a plain one, per cell.
// KernelTelemetryTarget is the tighter goal, reported but not enforced.
const (
	KernelTelemetryCeiling = 1.25
	KernelTelemetryTarget  = 1.10
)

// compareKernel gates the kernel-comparison profile. Simulated cycle
// counts are deterministic and enforced exactly (a drift means the
// kernels are no longer running the same simulation). Absolute Minstr/s
// is wall-clock and host-gated like the latency quantiles. Ratios are
// same-run: baseline-relative speedup changes are advisory (they still
// jitter with machine load), but the dispatch-bound cell is enforced
// against the absolute KernelDispatchFloor and every cell's telemetry
// overhead against KernelTelemetryCeiling, on any host.
func compareKernel(c *Comparison, base, cur *KernelProfile, opt CompareOptions, timed bool) {
	if base == nil || cur == nil {
		if base != nil || cur != nil {
			c.Deltas = append(c.Deltas, Delta{
				Metric: "kernel", Enforced: false, Regressed: true,
				Note: "kernel profile present on only one record; refresh the baseline",
			})
		}
		return
	}
	for _, bc := range base.Cells {
		cc := cur.Cell(bc.Name)
		if cc == nil {
			c.Deltas = append(c.Deltas, Delta{
				Metric: "kernel." + bc.Name, Enforced: true, Regressed: true,
				Note: "cell missing from current record; refresh the baseline",
			})
			continue
		}
		cyc := Delta{Metric: "kernel." + bc.Name + ".cycles",
			Old: float64(bc.Cycles), New: float64(cc.Cycles),
			Enforced: true, Regressed: bc.Cycles != cc.Cycles}
		if bc.Cycles > 0 {
			cyc.Ratio = float64(cc.Cycles) / float64(bc.Cycles)
		}
		if cyc.Regressed {
			cyc.Note = "simulated cycles drifted: not the same simulation anymore"
		}
		c.Deltas = append(c.Deltas, cyc)

		thr := func(metric string, old, new float64) {
			d := Delta{Metric: metric, Old: old, New: new, Enforced: timed}
			if new > 0 {
				d.Ratio = old / new // >1 = slower now
			}
			d.Regressed = old > 0 && new < old/(1+opt.Tol)
			c.Deltas = append(c.Deltas, d)
		}
		thr("kernel."+bc.Name+".reference_minstr_s", bc.ReferenceMinstrS, cc.ReferenceMinstrS)
		thr("kernel."+bc.Name+".threaded_minstr_s", bc.ThreadedMinstrS, cc.ThreadedMinstrS)
		thr("kernel."+bc.Name+".telemetry_minstr_s", bc.TelemetryMinstrS, cc.TelemetryMinstrS)

		sp := Delta{Metric: "kernel." + bc.Name + ".speedup",
			Old: bc.Speedup, New: cc.Speedup, Enforced: false}
		if bc.Speedup > 0 && cc.Speedup > 0 {
			sp.Ratio = bc.Speedup / cc.Speedup // >1 = smaller win now
		}
		sp.Regressed = bc.Speedup > 0 && cc.Speedup < bc.Speedup/(1+opt.Tol)
		c.Deltas = append(c.Deltas, sp)

		if bc.DispatchBound || cc.DispatchBound {
			fl := Delta{Metric: "kernel." + bc.Name + ".speedup_floor",
				Old: KernelDispatchFloor, New: cc.Speedup, Enforced: true,
				Regressed: cc.Speedup < KernelDispatchFloor}
			if cc.Speedup > 0 {
				fl.Ratio = KernelDispatchFloor / cc.Speedup
			}
			if fl.Regressed {
				fl.Note = fmt.Sprintf("threaded kernel below the %.1fx dispatch-bound floor over reference", KernelDispatchFloor)
			}
			c.Deltas = append(c.Deltas, fl)
		}

		tel := Delta{Metric: "kernel." + bc.Name + ".telemetry_overhead",
			Old: KernelTelemetryCeiling, New: cc.TelemetryOverhead, Enforced: true,
			Ratio:     cc.TelemetryOverhead / KernelTelemetryCeiling,
			Regressed: cc.TelemetryOverhead <= 0 || cc.TelemetryOverhead > KernelTelemetryCeiling}
		if tel.Regressed {
			tel.Note = fmt.Sprintf("telemetry costs more than %.2fx a plain threaded run", KernelTelemetryCeiling)
		}
		c.Deltas = append(c.Deltas, tel)
		target := Delta{Metric: "kernel." + bc.Name + ".telemetry_target",
			Old: KernelTelemetryTarget, New: cc.TelemetryOverhead, Enforced: false,
			Ratio:     cc.TelemetryOverhead / KernelTelemetryTarget,
			Regressed: cc.TelemetryOverhead > KernelTelemetryTarget}
		if target.Regressed {
			target.Note = fmt.Sprintf("above the %.2fx telemetry goal (advisory)", KernelTelemetryTarget)
		}
		c.Deltas = append(c.Deltas, target)
	}
}

// compareService gates the load-generator profile. Correctness metrics
// (dropped campaigns, client count, warm hit ratio) are enforced
// regardless of host: dropping campaigns or missing the shared cache is a
// bug, not noise. Throughput and request latency are wall-clock — an
// end-to-end request folds in queue wait and completion-poll
// quantization, which jitter ±30% run to run even on one host — so like
// wall_ms they are advisory unless Strict.
func compareService(c *Comparison, base, cur *ServiceProfile, opt CompareOptions) {
	if base == nil || cur == nil {
		if base != nil || cur != nil {
			c.Deltas = append(c.Deltas, Delta{
				Metric: "service", Enforced: false, Regressed: true,
				Note: "service profile present on only one record; refresh the baseline",
			})
		}
		return
	}

	clients := Delta{Metric: "service.clients", Old: float64(base.Clients), New: float64(cur.Clients), Enforced: true}
	if base.Clients > 0 {
		clients.Ratio = float64(cur.Clients) / float64(base.Clients)
	}
	clients.Regressed = base.Clients != cur.Clients
	if clients.Regressed {
		clients.Note = "client count changed; refresh the baseline"
	}
	c.Deltas = append(c.Deltas, clients)

	dropped := Delta{Metric: "service.dropped", Old: float64(base.Dropped), New: float64(cur.Dropped),
		Enforced: true, Regressed: cur.Dropped > 0}
	if dropped.Regressed {
		dropped.Note = "campaigns were dropped under load"
	}
	c.Deltas = append(c.Deltas, dropped)

	warm := Delta{Metric: "service.warm_hit_ratio", Old: base.WarmHitRatio, New: cur.WarmHitRatio, Enforced: true}
	if base.WarmHitRatio > 0 {
		warm.Ratio = base.WarmHitRatio / cur.WarmHitRatio // >1 = worse now
	}
	warm.Regressed = base.WarmHitRatio > 0 && cur.WarmHitRatio < base.WarmHitRatio*(1-opt.Tol)
	if warm.Regressed {
		warm.Note = "warm traffic is missing the shared cache"
	}
	c.Deltas = append(c.Deltas, warm)

	rps := Delta{Metric: "service.requests_per_sec", Old: base.RequestsPerSec, New: cur.RequestsPerSec,
		Enforced: opt.Strict}
	if cur.RequestsPerSec > 0 {
		rps.Ratio = base.RequestsPerSec / cur.RequestsPerSec
	}
	rps.Regressed = base.RequestsPerSec > 0 && cur.RequestsPerSec < base.RequestsPerSec/(1+opt.Tol)
	c.Deltas = append(c.Deltas, rps)

	lat := func(metric string, old, new float64, enforced bool, floorMul float64) {
		d := Delta{Metric: metric, Old: old, New: new, Enforced: enforced}
		if old > 0 {
			d.Ratio = new / old
		}
		d.Regressed = old > 0 && new > old*(1+opt.Tol) && new-old > opt.MinLatencyUS*floorMul
		c.Deltas = append(c.Deltas, d)
	}
	lat("service.req_latency_us.p50", base.ReqLatencyUS.P50, cur.ReqLatencyUS.P50, opt.Strict, 1)
	lat("service.req_latency_us.p95", base.ReqLatencyUS.P95, cur.ReqLatencyUS.P95, opt.Strict, 2.5)
	lat("service.req_latency_us.p99", base.ReqLatencyUS.P99, cur.ReqLatencyUS.P99, false, 1)

	qd := Delta{Metric: "service.queue_depth_max", Old: float64(base.QueueDepthMax),
		New: float64(cur.QueueDepthMax), Enforced: false}
	if base.QueueDepthMax > 0 {
		qd.Ratio = float64(cur.QueueDepthMax) / float64(base.QueueDepthMax)
	}
	qd.Regressed = base.QueueDepthMax > 0 && float64(cur.QueueDepthMax) > float64(base.QueueDepthMax)*(1+opt.Tol)
	c.Deltas = append(c.Deltas, qd)
}
