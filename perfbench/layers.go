package main

import "time"

// perLayerMetrics lists the traced run's metrics with their units. Every
// one is printed for every workload; a layer the workload bypasses reads 0.
var perLayerMetrics = [][2]string{
	{"compiler.compile_ms", "ms"},
	{"compiler.calls", "count"},
	{"compiler.regions", "count"},
	{"compiler.ckpts", "count"},
	{"sim.new_ms", "ms"},
	{"sim.run_ms.base", "ms"},
	{"sim.run_ms.persist", "ms"},
	{"sim.minstr_per_s.base", "Minstr/s"},
	{"sim.minstr_per_s.persist", "Minstr/s"},
	{"sim.instrs", "count"},
	{"sim.cycles", "count"},
	{"mem.l1d_accs", "count"},
	{"mem.l1d_misses", "count"},
	{"mem.l2_misses", "count"},
	{"mem.dram_misses", "count"},
	{"mem.nvm_reads", "count"},
	{"persist.stores", "count"},
	{"persist.bytes", "bytes"},
	{"persist.log_bytes", "bytes"},
	{"persist.wpq_hits", "count"},
	{"persist.stall_cyc", "cycles"},
	{"recovery.golden_ms", "ms"},
	{"recovery.check_ms", "ms"},
	{"recovery.faults_ms", "ms"},
	{"recovery.reexec_frac", "ratio"},
	{"recovery.sim_instrs", "count"},
	{"recovery.minstr_per_s", "Minstr/s"},
	{"recovery.clean", "count"},
	{"recovery.detected", "count"},
	{"recovery.diverged", "count"},
	{"recovery.error", "count"},
	{"faults.injected", "count"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.cell_ms", "ms"},
	{"runner.self_ms", "ms"},
	{"runner.occupancy", "ratio"},
	{"runner.hit_ratio", "ratio"},
	{"runner.flush_ms", "ms"},
	{"runner.flush_bytes", "bytes"},
	{"runner.store_records", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.journal_appends", "count"},
	{"service.journal_bytes", "bytes"},
	{"service.idempotent_hits", "count"},
	{"service.rejected", "count"},
	{"telemetry.run_ms", "ms"},
	{"telemetry.manifest_ms", "ms"},
	{"telemetry.manifest_bytes", "bytes"},
	{"telemetry.slowdown", "ratio"},
	{"telemetry.slowdown_samples", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.ops_per_s", "1/s"},
	{"trace.spans", "count"},
}

// perLayer derives the per-layer metrics from the traced run's spans and
// counts. Times are span self times summed over the last set-up repetition
// and the timed phase.
func perLayer(env *Env, res *Result) map[string]float64 {
	t := env.Trace
	spans := t.Spans()
	self := SelfTimes(spans)
	ms := func(name string) float64 { return SelfMS(spans, self, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var calls, cellMS, runMS float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / float64(time.Millisecond)
		switch s.Name {
		case "compiler.compile":
			calls++
		case "runner.cell":
			cellMS += d
		case "runner.run":
			runMS += d
		}
	}
	out := map[string]float64{
		"compiler.compile_ms":      ms("compiler.compile"),
		"compiler.calls":           calls,
		"sim.new_ms":               ms("sim.new"),
		"sim.run_ms.base":          ms("sim.run.base"),
		"sim.run_ms.persist":       ms("sim.run.persist"),
		"recovery.golden_ms":       ms("recovery.golden"),
		"recovery.check_ms":        ms("recovery.check"),
		"recovery.faults_ms":       ms("recovery.faults"),
		"recovery.reexec_frac":     ratio(t.Count("recovery.reexec"), t.Count("recovery.golden_instrs")),
		"recovery.minstr_per_s":    ratio(t.Count("recovery.sim_instrs")/1e6, (ms("recovery.check")+ms("recovery.faults"))/1000),
		"runner.cell_ms":           cellMS,
		"runner.self_ms":           ms("runner.run"),
		"runner.occupancy":         ratio(cellMS, maxWorkers*runMS),
		"runner.hit_ratio":         ratio(t.Count("runner.hits"), t.Count("runner.cells")),
		"runner.flush_ms":          ms("runner.flush"),
		"service.submit_ms":        ms("service.submit"),
		"service.result_ms":        ms("service.result"),
		"telemetry.run_ms":         ms("telemetry.run") + ms("telemetry.run_perfetto"),
		"telemetry.manifest_ms":    ms("telemetry.manifest"),
		"telemetry.slowdown":       ratio(ms("telemetry.run"), t.Count("telemetry.plain_ms")),
		"runtime.alloc_mb":         (res.runtime1["/gc/heap/allocs:bytes"] - res.runtime0["/gc/heap/allocs:bytes"]) / (1 << 20),
		"runtime.gc_cycles":        res.runtime1["/gc/cycles/total:gc-cycles"] - res.runtime0["/gc/cycles/total:gc-cycles"],
		"trace.ops_per_s":          float64(res.Attempted) / res.Wall.Seconds(),
		"trace.spans":              float64(len(spans)),
		"sim.minstr_per_s.base":    ratio(t.Count("sim.instrs.base")/1e6, ms("sim.run.base")/1000),
		"sim.minstr_per_s.persist": ratio(t.Count("sim.instrs.persist")/1e6, ms("sim.run.persist")/1000),
	}
	out["runtime.gc_cpu_frac"] = ratio(
		res.runtime1["/cpu/classes/gc/total:cpu-seconds"]-res.runtime0["/cpu/classes/gc/total:cpu-seconds"],
		res.runtime1["/cpu/classes/total:cpu-seconds"]-res.runtime0["/cpu/classes/total:cpu-seconds"])
	for _, m := range perLayerMetrics {
		if _, ok := out[m[0]]; !ok {
			out[m[0]] = t.Count(m[0])
		}
	}
	return out
}
